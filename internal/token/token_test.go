package token

import (
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"strings"
	"testing"
	"time"
)

func testRing(t *testing.T, spec string) *Keyring {
	t.Helper()
	kr, err := ParseKeyring(spec)
	if err != nil {
		t.Fatalf("ParseKeyring(%q): %v", spec, err)
	}
	return kr
}

func testToken(spec string) *Token {
	b := []byte(spec)
	return &Token{
		ID:       "0123456789abcdef",
		SpecHash: sha256.Sum256(b),
		Spec:     b,
		Seed:     42,
		Blocks:   16,
		Expiry:   1790000000,
	}
}

// The golden vectors pin the wire format. If either fails after a code
// change, the format changed: bump the version header, do not regenerate.
func TestGoldenVectors(t *testing.T) {
	cases := []struct {
		name string
		ring string
		tok  *Token
		want string
	}{
		{
			name: "two-key ring, expiry set",
			ring: "k2026:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f,old:ffeeddccbbaa99887766554433221100ffeeddccbbaa9988",
			tok:  testToken(`{"model":{"type":"eq22"},"seed":42,"blocks":16}`),
			want: "fdt1.k2026.ARAwMTIzNDU2Nzg5YWJjZGVmio0XqEjDNFWV1-SqCNN8CmG6xE0LoVC_tAIoTEk8HvcqAAAAAAAAABAAAAAAAAAAgDuxagAAAAAvAAAAeyJtb2RlbCI6eyJ0eXBlIjoiZXEyMiJ9LCJzZWVkIjo0MiwiYmxvY2tzIjoxNn0.8LMW2tOFtm7NndiR5NFnmET3R5Hjt8unHiCqwumSFF0",
		},
		{
			name: "single key, no expiry, negative seed",
			ring: "solo:00112233445566778899aabbccddeeff",
			tok: &Token{
				ID:       "a",
				SpecHash: sha256.Sum256([]byte(`{}`)),
				Spec:     []byte(`{}`),
				Seed:     -1,
			},
			want: "fdt1.solo.AQFhRBNvo1WzZ4oRRq0W9-hknpT7T8If536DEMBg9hyq_4r__________wAAAAAAAAAAAAAAAAAAAAACAAAAe30.ZQwUFctScD711HVzEOBmGE-1YTZihQqf7EqJohVnPaU",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kr := testRing(t, tc.ring)
			got, err := kr.Sign(tc.tok)
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if got != tc.want {
				t.Fatalf("golden mismatch:\n got %s\nwant %s", got, tc.want)
			}
			back, err := kr.Verify(got, time.Unix(1700000000, 0))
			if err != nil {
				t.Fatalf("Verify: %v", err)
			}
			if back.ID != tc.tok.ID || back.Seed != tc.tok.Seed || back.Blocks != tc.tok.Blocks ||
				back.Expiry != tc.tok.Expiry || string(back.Spec) != string(tc.tok.Spec) ||
				back.SpecHash != tc.tok.SpecHash {
				t.Fatalf("round trip mismatch: got %+v want %+v", back, tc.tok)
			}
		})
	}
}

func TestRotation(t *testing.T) {
	oldRing := testRing(t, "old:ffeeddccbbaa99887766554433221100ffeeddccbbaa9988")
	tok := testToken(`{"model":{"type":"eq22"}}`)
	signed, err := oldRing.Sign(tok)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	// Rotation prepends the new signer and keeps the old key verifying.
	rotated := testRing(t, "k2026:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f,old:ffeeddccbbaa99887766554433221100ffeeddccbbaa9988")
	if rotated.SignerID() != "k2026" {
		t.Fatalf("SignerID = %q, want k2026", rotated.SignerID())
	}
	if len(rotated.keys) != 2 || rotated.keys[1].ID != "old" {
		t.Fatalf("rotated ring keeps %d keys, want k2026 then old", len(rotated.keys))
	}
	if _, err := rotated.Verify(signed, time.Unix(1700000000, 0)); err != nil {
		t.Fatalf("rotated ring must verify old-key tokens: %v", err)
	}
	// A ring that dropped the old key refuses them.
	fresh := testRing(t, "k2026:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
	if _, err := fresh.Verify(signed, time.Unix(1700000000, 0)); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v, want ErrUnknownKey", err)
	}
}

func TestVerifyFailures(t *testing.T) {
	kr := testRing(t, "k1:000102030405060708090a0b0c0d0e0f")
	now := time.Unix(1700000000, 0)
	valid, err := kr.Sign(testToken(`{"model":{"type":"eq22"},"seed":42,"blocks":16}`))
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	parts := strings.Split(valid, ".")
	enc := base64.RawURLEncoding
	payload, err := enc.DecodeString(parts[2])
	if err != nil {
		t.Fatalf("decode payload: %v", err)
	}
	resign := func(mutate func(p []byte) []byte) string {
		// Re-MAC a mutated payload with the real key: the decode layer, not
		// the signature check, must reject it.
		p := mutate(append([]byte(nil), payload...))
		mac := computeMAC(kr.keys[0].Secret, "k1", p)
		return header + ".k1." + enc.EncodeToString(p) + "." + enc.EncodeToString(mac)
	}
	cases := []struct {
		name string
		tok  string
		want error
	}{
		{"empty", "", ErrMalformed},
		{"three parts", parts[0] + "." + parts[1] + "." + parts[2], ErrMalformed},
		{"bad header", "nope." + parts[1] + "." + parts[2] + "." + parts[3], ErrMalformed},
		{"version skew", "fdt2." + parts[1] + "." + parts[2] + "." + parts[3], ErrVersion},
		{"unknown key id", parts[0] + ".k9." + parts[2] + "." + parts[3], ErrUnknownKey},
		{"payload not base64", parts[0] + "." + parts[1] + ".!!!." + parts[3], ErrMalformed},
		{"signature not base64", parts[0] + "." + parts[1] + "." + parts[2] + ".!!!", ErrMalformed},
		{"truncated signature", parts[0] + "." + parts[1] + "." + parts[2] + "." + parts[3][:8], ErrBadSignature},
		{"flipped signature bit", parts[0] + "." + parts[1] + "." + parts[2] + "." + flipChar(parts[3]), ErrBadSignature},
		{"tampered payload", parts[0] + "." + parts[1] + "." + flipChar(parts[2]) + "." + parts[3], ErrBadSignature},
		{"trailing payload bytes", resign(func(p []byte) []byte { return append(p, 0) }), ErrMalformed},
		{"truncated payload", resign(func(p []byte) []byte { return p[:len(p)-1] }), ErrMalformed},
		{"payload version byte skew", resign(func(p []byte) []byte { p[0] = 2; return p }), ErrVersion},
		{"spec hash mismatch", resign(func(p []byte) []byte { p[2+16+3] ^= 1; return p }), ErrMalformed},
		{"short payload", resign(func(p []byte) []byte { return p[:4] }), ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := kr.Verify(tc.tok, now); !errors.Is(err, tc.want) {
				t.Fatalf("Verify(%q) err = %v, want %v", tc.tok, err, tc.want)
			}
		})
	}
}

func flipChar(s string) string {
	b := []byte(s)
	if b[0] == 'A' {
		b[0] = 'B'
	} else {
		b[0] = 'A'
	}
	return string(b)
}

func TestExpiryBoundary(t *testing.T) {
	kr := testRing(t, "k1:000102030405060708090a0b0c0d0e0f")
	tok := testToken(`{}`)
	tok.SpecHash = sha256.Sum256([]byte(`{}`))
	tok.Spec = []byte(`{}`)
	tok.Expiry = 1700000000
	signed, err := kr.Sign(tok)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := kr.Verify(signed, time.Unix(1700000000, 0)); err != nil {
		t.Fatalf("at expiry instant: %v", err)
	}
	if _, err := kr.Verify(signed, time.Unix(1700000001, 0)); !errors.Is(err, ErrExpired) {
		t.Fatalf("past expiry: err = %v, want ErrExpired", err)
	}
	tok.Expiry = 0
	signed, err = kr.Sign(tok)
	if err != nil {
		t.Fatalf("Sign: %v", err)
	}
	if _, err := kr.Verify(signed, time.Unix(1<<40, 0)); err != nil {
		t.Fatalf("zero expiry must never expire: %v", err)
	}
}

func TestParseKeyringErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"only commas", ",,"},
		{"missing colon", "k1"},
		{"bad hex", "k1:zz"},
		{"short secret", "k1:0001"},
		{"empty id", ":000102030405060708090a0b0c0d0e0f"},
		{"dot in id", "k.1:000102030405060708090a0b0c0d0e0f"},
		{"duplicate id", "k1:000102030405060708090a0b0c0d0e0f,k1:101112131415161718191a1b1c1d1e1f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseKeyring(tc.in); !errors.Is(err, ErrBadKey) {
				t.Fatalf("ParseKeyring(%q) err = %v, want ErrBadKey", tc.in, err)
			}
		})
	}
}

func TestSignErrors(t *testing.T) {
	kr := testRing(t, "k1:000102030405060708090a0b0c0d0e0f")
	bad := testToken(`{}`)
	bad.ID = ""
	if _, err := kr.Sign(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("empty id: err = %v, want ErrMalformed", err)
	}
	bad = testToken(`{}`)
	bad.ID = strings.Repeat("x", 256)
	if _, err := kr.Sign(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized id: err = %v, want ErrMalformed", err)
	}
	bad = testToken(`{"a":1}`)
	bad.SpecHash[0] ^= 1
	if _, err := kr.Sign(bad); !errors.Is(err, ErrMalformed) {
		t.Fatalf("hash mismatch: err = %v, want ErrMalformed", err)
	}
}
