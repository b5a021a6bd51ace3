package token

import (
	"encoding/base64"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fuzzRing is the two-key ring of the golden vectors: "k2026" signs, "old"
// only verifies.
const fuzzRing = "k2026:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f,old:ffeeddccbbaa99887766554433221100ffeeddccbbaa9988"

// FuzzKeyringVerify: Verify never panics, and every token it accepts re-signs
// to a string that verifies to an equal Token. Random bytes rarely carry a
// valid MAC, so each input is also re-MACed under the signing key with its
// header, key id and payload kept, which sends arbitrary payloads through
// the strict payload decoder behind the signature check.
func FuzzKeyringVerify(f *testing.F) {
	kr, err := ParseKeyring(fuzzRing)
	if err != nil {
		f.Fatal(err)
	}
	old, err := ParseKeyring("old:ffeeddccbbaa99887766554433221100ffeeddccbbaa9988")
	if err != nil {
		f.Fatal(err)
	}
	spec := `{"model":{"type":"exponential","n":32,"rho":0.5},"method":"generalized","seed":7,"blocks":8,"idft_points":4096,"normalized_doppler":0.05}`
	for _, tok := range []*Token{testToken(spec), testToken(`{"model":{"type":"eq22"},"seed":42,"blocks":16}`)} {
		for _, signer := range []*Keyring{kr, old} {
			s, err := signer.Sign(tok)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(s)
			f.Add(s[:len(s)-3])
		}
	}
	f.Add("fdt1.solo.AQFhRBNvo1WzZ4oRRq0W9-hknpT7T8If536DEMBg9hyq_4r__________wAAAAAAAAAAAAAAAAAAAAACAAAAe30.ZQwUFctScD711HVzEOBmGE-1YTZihQqf7EqJohVnPaU")
	f.Add("fdt2.k2026.AA.AA")
	now := time.Unix(1700000000, 0)

	f.Fuzz(func(t *testing.T, s string) {
		checkResign(t, kr, s, now)
		parts := strings.Split(s, ".")
		if len(parts) != 4 {
			return
		}
		payload, err := base64.RawURLEncoding.DecodeString(parts[2])
		if err != nil {
			return
		}
		mac := computeMAC(kr.keys[0].Secret, parts[1], payload)
		checkResign(t, kr, parts[0]+"."+parts[1]+"."+parts[2]+"."+base64.RawURLEncoding.EncodeToString(mac), now)
	})
}

// checkResign verifies s and, when it is accepted, checks that Sign of the
// decoded Token yields a string that verifies to an equal Token.
func checkResign(t *testing.T, kr *Keyring, s string, now time.Time) {
	t.Helper()
	tok, err := kr.Verify(s, now)
	if err != nil {
		return
	}
	again, err := kr.Sign(tok)
	if err != nil {
		t.Fatalf("verified token does not re-sign: %v\ntoken: %q", err, s)
	}
	back, err := kr.Verify(again, now)
	if err != nil {
		t.Fatalf("re-signed token does not verify: %v\ntoken: %q\nre-signed: %q", err, s, again)
	}
	if !reflect.DeepEqual(back, tok) {
		t.Fatalf("re-signed token decodes differently:\nfirst: %+v\nagain: %+v", tok, back)
	}
}
