// Package token implements the signed, self-describing session tokens that
// make fadingd replicas interchangeable.
//
// A fadingd session is deterministic: block k of the fading process is an
// O(1) function of (canonical spec, seed, block index), so the whole stream
// is reconstructible from the spec alone. The token packages that
// reconstruction tuple — session id, canonical spec (plus its SHA-256 hash),
// seed, blocks budget, and an expiry — behind an HMAC-SHA256 signature so a
// replica that has never seen the session can verify the tuple and rebuild
// the stream locally. The session table becomes a cache; the token is the
// source of truth.
//
// Wire format (one line, URL- and header-safe):
//
//	fdt1.<key-id>.<base64url(payload)>.<base64url(hmac-sha256)>
//
// The MAC covers the literal header and key id as well as the raw payload
// bytes, so neither can be swapped without invalidating the signature.
// Payload layout (little-endian, strict — trailing bytes are rejected):
//
//	[0]     version (0x01)
//	[1]     id length (uint8)
//	[2:...] session id (ASCII)
//	[+32]   SHA-256 of the canonical spec
//	[+8]    seed (int64)
//	[+8]    blocks budget (uint64)
//	[+8]    expiry (unix seconds, int64; 0 = no expiry)
//	[+4]    spec length (uint32)
//	[+...]  canonical spec JSON
//
// Keys rotate by id: a Keyring holds an ordered list of (id, secret) pairs,
// the first entry signs new tokens, and every entry verifies, so a fleet can
// introduce a fresh key while tokens minted under the old one age out.
package token

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Sentinel errors returned by Verify and ParseKeyring. Callers map these to
// transport-level statuses (fadingd: ErrVersion → 400, the rest → 401).
var (
	// ErrMalformed reports a token that does not parse: wrong part count,
	// bad base64, short or over-long payload, trailing bytes, or an
	// internal inconsistency such as a spec hash that does not match the
	// embedded spec.
	ErrMalformed = errors.New("token: malformed token")
	// ErrVersion reports a token minted under a format version this build
	// does not speak.
	ErrVersion = errors.New("token: unsupported token version")
	// ErrUnknownKey reports a key id absent from the verifying keyring.
	ErrUnknownKey = errors.New("token: unknown key id")
	// ErrBadSignature reports an HMAC mismatch.
	ErrBadSignature = errors.New("token: signature mismatch")
	// ErrExpired reports a structurally valid, correctly signed token whose
	// expiry has passed.
	ErrExpired = errors.New("token: token expired")
	// ErrBadKey reports an unusable keyring specification.
	ErrBadKey = errors.New("token: invalid signing key")
)

const (
	// header names the token format and version on the wire.
	header  = "fdt1"
	version = 1

	// MinSecretLen is the smallest accepted HMAC secret, in bytes.
	MinSecretLen = 16
	// maxSpecLen bounds the embedded canonical spec; it mirrors the service
	// request-body cap so a token can never carry a spec the service would
	// have refused to parse.
	maxSpecLen = 1 << 20
	// fixedLen is the payload size excluding the variable id and spec.
	fixedLen = 1 + 1 + sha256.Size + 8 + 8 + 8 + 4
)

// Token is the reconstruction tuple a replica needs to serve any block of a
// session it has never seen. Every exported field is bound by the signature;
// the canonfields writer below is the single serialization point.
//
// fadinglint:canon=appendPayload
type Token struct {
	// ID is the session id the origin replica minted. The stream path id
	// must match it, so a token cannot be replayed under a different id to
	// poison another replica's session cache.
	ID string
	// SpecHash is the SHA-256 of Spec. Redundant with Spec but cheap, and
	// it lets operators correlate tokens with setup-cache keys in logs
	// without shipping the spec around.
	SpecHash [32]byte
	// Spec is the canonical session spec JSON; ParseSpec on the verifying
	// replica rebuilds the exact stream from it.
	Spec []byte
	// Seed is the session seed, duplicated from Spec for self-description.
	Seed int64
	// Blocks is the session's blocks budget, duplicated from Spec.
	Blocks uint64
	// Expiry is the unix-seconds instant after which Verify refuses the
	// token; 0 disables expiry.
	Expiry int64
}

// appendPayload serializes every signed field into buf in the documented
// layout. Sign and decodePayload are its only mirror; new Token fields must
// be added here (canonfields enforces this) and bump the version.
func (t *Token) appendPayload(buf []byte) []byte {
	buf = append(buf, version)
	buf = append(buf, byte(len(t.ID)))
	buf = append(buf, t.ID...)
	buf = append(buf, t.SpecHash[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Seed))
	buf = binary.LittleEndian.AppendUint64(buf, t.Blocks)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Expiry))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(t.Spec)))
	buf = append(buf, t.Spec...)
	return buf
}

// decodePayload is the strict inverse of appendPayload: every length is
// checked and trailing bytes are an error, so two replicas can never disagree
// about what a payload means.
func decodePayload(p []byte) (*Token, error) {
	if len(p) < fixedLen {
		return nil, fmt.Errorf("%w: payload too short (%d bytes)", ErrMalformed, len(p))
	}
	if p[0] != version {
		return nil, fmt.Errorf("%w: payload version %d", ErrVersion, p[0])
	}
	idLen := int(p[1])
	if idLen == 0 {
		return nil, fmt.Errorf("%w: empty session id", ErrMalformed)
	}
	if len(p) < fixedLen+idLen {
		return nil, fmt.Errorf("%w: payload truncated in session id", ErrMalformed)
	}
	t := &Token{ID: string(p[2 : 2+idLen])}
	off := 2 + idLen
	copy(t.SpecHash[:], p[off:off+sha256.Size])
	off += sha256.Size
	t.Seed = int64(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	t.Blocks = binary.LittleEndian.Uint64(p[off:])
	off += 8
	t.Expiry = int64(binary.LittleEndian.Uint64(p[off:]))
	off += 8
	specLen := int(binary.LittleEndian.Uint32(p[off:]))
	off += 4
	if specLen > maxSpecLen {
		return nil, fmt.Errorf("%w: spec length %d exceeds cap", ErrMalformed, specLen)
	}
	if len(p) != off+specLen {
		return nil, fmt.Errorf("%w: payload length %d, want %d", ErrMalformed, len(p), off+specLen)
	}
	t.Spec = append([]byte(nil), p[off:off+specLen]...)
	if sha256.Sum256(t.Spec) != t.SpecHash {
		return nil, fmt.Errorf("%w: spec hash does not match embedded spec", ErrMalformed)
	}
	return t, nil
}

// Key is one (id, secret) pair of a rotatable keyring.
type Key struct {
	// ID names the key on the wire; it appears in every token signed with
	// the key. Allowed characters: [A-Za-z0-9_-], so ids never collide with
	// the token's dot separators.
	ID string
	// Secret is the HMAC-SHA256 secret, at least MinSecretLen bytes.
	Secret []byte
}

// Keyring is an ordered set of verification keys. The first key signs.
type Keyring struct {
	keys []Key
	byID map[string]int
}

// NewKeyring validates the keys and returns a ring that signs with keys[0]
// and verifies with any of them.
func NewKeyring(keys ...Key) (*Keyring, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("%w: no keys", ErrBadKey)
	}
	kr := &Keyring{keys: keys, byID: make(map[string]int, len(keys))}
	for i, k := range keys {
		if !validKeyID(k.ID) {
			return nil, fmt.Errorf("%w: key id %q (want non-empty [A-Za-z0-9_-], at most 64 chars)", ErrBadKey, k.ID)
		}
		if len(k.Secret) < MinSecretLen {
			return nil, fmt.Errorf("%w: key %q secret is %d bytes, want at least %d", ErrBadKey, k.ID, len(k.Secret), MinSecretLen)
		}
		if _, dup := kr.byID[k.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate key id %q", ErrBadKey, k.ID)
		}
		kr.byID[k.ID] = i
	}
	return kr, nil
}

// ParseKeyring parses the flag/file syntax "id:hexsecret[,id2:hexsecret...]".
// The first entry signs new tokens; all entries verify, so rotation is
// "prepend the new key, keep the old one until outstanding tokens expire".
func ParseKeyring(s string) (*Keyring, error) {
	var keys []Key
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, hexSecret, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("%w: entry %q is not id:hexsecret", ErrBadKey, entry)
		}
		secret, err := hex.DecodeString(hexSecret)
		if err != nil {
			return nil, fmt.Errorf("%w: key %q secret is not hex: %v", ErrBadKey, id, err)
		}
		keys = append(keys, Key{ID: id, Secret: secret})
	}
	return NewKeyring(keys...)
}

// SignerID reports the id of the key new tokens are signed with.
func (kr *Keyring) SignerID() string { return kr.keys[0].ID }

// Sign serializes t and returns the wire token, signed with the ring's
// primary key. The token must be self-consistent: non-empty id and a
// SpecHash that matches Spec.
func (kr *Keyring) Sign(t *Token) (string, error) {
	if t.ID == "" || len(t.ID) > 255 {
		return "", fmt.Errorf("%w: session id length %d", ErrMalformed, len(t.ID))
	}
	if len(t.Spec) > maxSpecLen {
		return "", fmt.Errorf("%w: spec length %d exceeds cap", ErrMalformed, len(t.Spec))
	}
	if sha256.Sum256(t.Spec) != t.SpecHash {
		return "", fmt.Errorf("%w: spec hash does not match spec", ErrMalformed)
	}
	k := kr.keys[0]
	payload := t.appendPayload(make([]byte, 0, fixedLen+len(t.ID)+len(t.Spec)))
	mac := computeMAC(k.Secret, k.ID, payload)
	enc := base64.RawURLEncoding
	return header + "." + k.ID + "." + enc.EncodeToString(payload) + "." + enc.EncodeToString(mac), nil
}

// Verify authenticates s against the ring and decodes it. The signature is
// checked in constant time before any payload field is trusted; expiry is
// evaluated against now only after authentication, so a tampered expiry can
// never be probed.
func (kr *Keyring) Verify(s string, now time.Time) (*Token, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return nil, fmt.Errorf("%w: want 4 dot-separated parts, got %d", ErrMalformed, len(parts))
	}
	if parts[0] != header {
		if strings.HasPrefix(parts[0], "fdt") && len(parts[0]) > 3 {
			return nil, fmt.Errorf("%w: header %q, this build speaks %q", ErrVersion, parts[0], header)
		}
		return nil, fmt.Errorf("%w: header %q", ErrMalformed, parts[0])
	}
	idx, ok := kr.byID[parts[1]]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKey, parts[1])
	}
	enc := base64.RawURLEncoding
	payload, err := enc.DecodeString(parts[2])
	if err != nil {
		return nil, fmt.Errorf("%w: payload base64: %v", ErrMalformed, err)
	}
	mac, err := enc.DecodeString(parts[3])
	if err != nil {
		return nil, fmt.Errorf("%w: signature base64: %v", ErrMalformed, err)
	}
	want := computeMAC(kr.keys[idx].Secret, parts[1], payload)
	if !hmac.Equal(mac, want) {
		return nil, ErrBadSignature
	}
	t, err := decodePayload(payload)
	if err != nil {
		return nil, err
	}
	if t.Expiry != 0 && now.Unix() > t.Expiry {
		return nil, fmt.Errorf("%w: at %d, now %d", ErrExpired, t.Expiry, now.Unix())
	}
	return t, nil
}

// computeMAC binds the header and key id into the MAC alongside the payload,
// with NUL separators so field boundaries cannot shift.
func computeMAC(secret []byte, keyID string, payload []byte) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write([]byte(header))
	h.Write([]byte{0})
	h.Write([]byte(keyID))
	h.Write([]byte{0})
	h.Write(payload)
	return h.Sum(nil)
}

func validKeyID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}
