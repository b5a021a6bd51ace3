// Token-resume API tests, deliberately in the external test package: they
// exercise the cluster story through the public surface only — Config,
// Handler, and the wire protocol — the way a second replica would.
package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/token"
)

const (
	clusterKey    = "k1:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
	mismatchedKey = "k1:ffeeddccbbaa99887766554433221100ffeeddccbbaa99887766554433221100"
	foreignKey    = "k9:000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"

	tokenTestSpec = `{"model":{"type":"eq22"},"seed":7,"blocks":8,"idft_points":64}`
)

// clusterInfo mirrors the create-response fields these tests consume.
type clusterInfo struct {
	ID     string          `json:"id"`
	Blocks int             `json:"blocks"`
	Token  string          `json:"token"`
	Spec   json.RawMessage `json:"spec"`
}

func newReplica(t *testing.T, keys string, cfg service.Config) *httptest.Server {
	t.Helper()
	if keys != "" {
		kr, err := token.ParseKeyring(keys)
		if err != nil {
			t.Fatalf("ParseKeyring: %v", err)
		}
		cfg.Keyring = kr
	}
	s := service.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return ts
}

func createOn(t *testing.T, base, spec string) clusterInfo {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /v1/sessions: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/sessions: status %d, body %s", resp.StatusCode, body)
	}
	var info clusterInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode create response: %v", err)
	}
	return info
}

// streamWith GETs a stream carrying the token as instructed ("bearer",
// "query", or "none") and returns status, body, and the decoded error
// envelope (zero-valued on success).
func streamWith(t *testing.T, base, id, params, tok, carry string) (int, []byte, errorEnvelope) {
	t.Helper()
	url := base + "/v1/sessions/" + id + "/stream" + params
	if carry == "query" && tok != "" {
		sep := "?"
		if strings.Contains(params, "?") {
			sep = "&"
		}
		url += sep + "token=" + tok
	}
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if carry == "bearer" && tok != "" {
		req.Header.Set("Authorization", "Bearer "+tok)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	var env errorEnvelope
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("error body is not the {code,error} envelope: %q", body)
		}
	}
	return resp.StatusCode, body, env
}

type errorEnvelope struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// TestClusterSmoke is the statelessness contract in miniature: a session
// created on replica A resumes byte-identically from any offset on replica B,
// which shares only the signing key — no session table, no prior requests.
func TestClusterSmoke(t *testing.T) {
	a := newReplica(t, clusterKey, service.Config{})
	b := newReplica(t, clusterKey, service.Config{})

	info := createOn(t, a.URL, tokenTestSpec)
	if info.Token == "" {
		t.Fatal("create response carries no token despite a configured keyring")
	}
	status, full, _ := streamWith(t, a.URL, info.ID, "?format=bin", "", "none")
	if status != http.StatusOK {
		t.Fatalf("origin full stream: status %d", status)
	}
	if len(full)%info.Blocks != 0 {
		t.Fatalf("stream length %d not divisible into %d blocks", len(full), info.Blocks)
	}
	frame := len(full) / info.Blocks

	for _, carry := range []string{"bearer", "query"} {
		for _, from := range []int{0, 1, 3, 7} {
			status, tail, _ := streamWith(t, b.URL, info.ID,
				fmt.Sprintf("?format=bin&from=%d", from), info.Token, carry)
			if status != http.StatusOK {
				t.Fatalf("replica B resume from=%d (%s): status %d", from, carry, status)
			}
			if want := full[from*frame:]; !bytes.Equal(tail, want) {
				t.Fatalf("replica B resume from=%d (%s): %d bytes differ from origin (sha256 %x vs %x)",
					from, carry, len(tail), sha256.Sum256(tail), sha256.Sum256(want))
			}
		}
	}

	// The origin itself is stateless too: after an explicit delete the token
	// still serves, because the table was only ever a cache.
	req, _ := http.NewRequest(http.MethodDelete, a.URL+"/v1/sessions/"+info.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %v status %v", err, resp.StatusCode)
	}
	status, again, _ := streamWith(t, a.URL, info.ID, "?format=bin", info.Token, "bearer")
	if status != http.StatusOK || !bytes.Equal(again, full) {
		t.Fatalf("post-delete token resume on origin: status %d, identical=%v", status, bytes.Equal(again, full))
	}

	// A replica with a mismatched key must refuse: same key id with a
	// different secret is a signature failure, a foreign key id is unknown.
	wrongSecret := newReplica(t, mismatchedKey, service.Config{})
	status, _, env := streamWith(t, wrongSecret.URL, info.ID, "?format=bin", info.Token, "bearer")
	if status != http.StatusUnauthorized || env.Code != "token_invalid" {
		t.Fatalf("mismatched secret: status %d code %q, want 401 token_invalid", status, env.Code)
	}
	foreign := newReplica(t, foreignKey, service.Config{})
	status, _, env = streamWith(t, foreign.URL, info.ID, "?format=bin", info.Token, "bearer")
	if status != http.StatusUnauthorized || env.Code != "token_unknown_key" {
		t.Fatalf("foreign key id: status %d code %q, want 401 token_unknown_key", status, env.Code)
	}
}

// TestTokenRebuildSharesSetupCache proves the rebuild flows through the
// content-addressed setup cache: after a token rebuild on a fresh replica,
// creating an equivalent session there is a cache hit, because the token's
// canonical spec and the posted spec derive the same address.
func TestTokenRebuildSharesSetupCache(t *testing.T) {
	a := newReplica(t, clusterKey, service.Config{})
	b := newReplica(t, clusterKey, service.Config{})

	info := createOn(t, a.URL, tokenTestSpec)
	if status, _, _ := streamWith(t, b.URL, info.ID, "?format=bin&count=1", info.Token, "bearer"); status != http.StatusOK {
		t.Fatalf("token rebuild on B: status %d", status)
	}
	before := scrapeCounter(t, b.URL, "fadingd_spec_cache_hits_total")
	createOn(t, b.URL, tokenTestSpec)
	after := scrapeCounter(t, b.URL, "fadingd_spec_cache_hits_total")
	if after != before+1 {
		t.Fatalf("create after token rebuild: cache hits %d -> %d, want +1 (shared setup artifact)", before, after)
	}
	if rebuilds := scrapeCounter(t, b.URL, "fadingd_token_rebuilds_total"); rebuilds != 1 {
		t.Fatalf("fadingd_token_rebuilds_total = %d, want 1", rebuilds)
	}
}

func scrapeCounter(t *testing.T, base, name string) int {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var n int
			if _, err := fmt.Sscanf(v, "%d", &n); err != nil {
				t.Fatalf("parse %s %q: %v", name, v, err)
			}
			return n
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestTokenFailurePaths drives every refusal through the wire and asserts
// both the status and the machine-readable {code,error} envelope.
func TestTokenFailurePaths(t *testing.T) {
	origin := newReplica(t, clusterKey, service.Config{})
	replica := newReplica(t, clusterKey, service.Config{})
	info := createOn(t, origin.URL, tokenTestSpec)

	kr, err := token.ParseKeyring(clusterKey)
	if err != nil {
		t.Fatalf("ParseKeyring: %v", err)
	}
	mint := func(mutate func(*token.Token)) string {
		spec := append([]byte(nil), info.Spec...)
		tok := &token.Token{
			ID:       info.ID,
			SpecHash: sha256.Sum256(spec),
			Spec:     spec,
			Seed:     7,
			Blocks:   uint64(info.Blocks),
			Expiry:   time.Now().Add(time.Hour).Unix(),
		}
		mutate(tok)
		signed, err := kr.Sign(tok)
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		return signed
	}
	expired := mint(func(tk *token.Token) { tk.Expiry = 1 })
	disagreeing := mint(func(tk *token.Token) { tk.Seed = 8 })
	badSpec := mint(func(tk *token.Token) {
		tk.Spec = []byte(`{"model":{"type":"eq22"},"seed":7,"blocks":0}`)
		tk.SpecHash = sha256.Sum256(tk.Spec)
	})
	oversized := mint(func(tk *token.Token) {
		// Valid signature, honest spec — but beyond this replica's limits.
		tk.Spec = []byte(`{"model":{"type":"eq22"},"seed":7,"blocks":8,"idft_points":131072}`)
		tk.SpecHash = sha256.Sum256(tk.Spec)
	})
	parts := strings.Split(info.Token, ".")
	payload, err := base64.RawURLEncoding.DecodeString(parts[2])
	if err != nil {
		t.Fatalf("decode payload: %v", err)
	}
	tampered := append([]byte(nil), payload...)
	tampered[len(tampered)-1] ^= 1
	tamperedTok := parts[0] + "." + parts[1] + "." + base64.RawURLEncoding.EncodeToString(tampered) + "." + parts[3]

	foreignRing, err := token.ParseKeyring(foreignKey)
	if err != nil {
		t.Fatalf("ParseKeyring: %v", err)
	}
	foreignTok := func() string {
		spec := append([]byte(nil), info.Spec...)
		signed, err := foreignRing.Sign(&token.Token{
			ID: info.ID, SpecHash: sha256.Sum256(spec), Spec: spec,
			Seed: 7, Blocks: uint64(info.Blocks),
		})
		if err != nil {
			t.Fatalf("Sign: %v", err)
		}
		return signed
	}()

	cases := []struct {
		name   string
		id     string
		tok    string
		status int
		code   string
	}{
		{"no token on table miss", info.ID, "", http.StatusNotFound, "not_found"},
		{"garbage token", info.ID, "not-a-token", http.StatusUnauthorized, "token_invalid"},
		{"expired", info.ID, expired, http.StatusUnauthorized, "token_expired"},
		{"flipped signature", info.ID, info.Token[:len(info.Token)-2] + "xx", http.StatusUnauthorized, "token_invalid"},
		{"unknown key id", info.ID, foreignTok, http.StatusUnauthorized, "token_unknown_key"},
		{"tampered spec payload", info.ID, tamperedTok, http.StatusUnauthorized, "token_invalid"},
		{"version skew", info.ID, "fdt2." + strings.TrimPrefix(info.Token, "fdt1."), http.StatusBadRequest, "token_version"},
		{"replayed under foreign id", "deadbeef00000000", info.Token, http.StatusUnauthorized, "token_invalid"},
		{"fields disagree with spec", info.ID, disagreeing, http.StatusUnauthorized, "token_invalid"},
		{"embedded spec invalid", info.ID, badSpec, http.StatusBadRequest, "bad_spec"},
		{"embedded spec beyond limits", info.ID, oversized, http.StatusBadRequest, "bad_spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, env := streamWith(t, replica.URL, tc.id, "?format=bin", tc.tok, "bearer")
			if status != tc.status || env.Code != tc.code {
				t.Fatalf("status %d code %q (%s), want %d %q", status, env.Code, env.Error, tc.status, tc.code)
			}
		})
	}

	// A keyless replica cannot authenticate any token.
	keyless := newReplica(t, "", service.Config{})
	status, _, env := streamWith(t, keyless.URL, info.ID, "?format=bin", info.Token, "bearer")
	if status != http.StatusUnauthorized || env.Code != "token_invalid" {
		t.Fatalf("keyless replica: status %d code %q, want 401 token_invalid", status, env.Code)
	}
}

// TestTokenRotation exercises key rotation across replicas: a token signed
// under the old primary verifies on a replica whose ring leads with the new
// key but retains the old one.
func TestTokenRotation(t *testing.T) {
	oldPrimary := newReplica(t, clusterKey, service.Config{})
	rotated := newReplica(t, "k2:"+strings.Repeat("ab", 32)+","+clusterKey, service.Config{})

	info := createOn(t, oldPrimary.URL, tokenTestSpec)
	status, _, _ := streamWith(t, rotated.URL, info.ID, "?format=bin&count=1", info.Token, "bearer")
	if status != http.StatusOK {
		t.Fatalf("rotated replica refused old-key token: status %d", status)
	}
	// And the rotated replica's own tokens name the new key.
	info2 := createOn(t, rotated.URL, tokenTestSpec)
	if !strings.HasPrefix(info2.Token, "fdt1.k2.") {
		t.Fatalf("rotated replica signs with %q, want key id k2", strings.SplitN(info2.Token, ".", 3)[:2])
	}
}

// TestTokenRebuildVsSweepRace hammers token-miss rebuilds against a TTL sweep
// that evicts everything it can, as fast as it can. Run under -race in CI,
// this is the regression gate for the adopt-vs-sweep locking discipline: the
// stream reference must be acquired under the table lock before the rebuilt
// session is published, so no request ever observes a half-adopted session.
func TestTokenRebuildVsSweepRace(t *testing.T) {
	kr, err := token.ParseKeyring(clusterKey)
	if err != nil {
		t.Fatalf("ParseKeyring: %v", err)
	}
	s := service.New(service.Config{
		Keyring: kr,
		// Everything idle is instantly expired: each resume likely finds the
		// table swept and rebuilds, racing the sweeper's eviction scan.
		SessionTTL:    time.Nanosecond,
		SweepInterval: time.Millisecond,
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	info := createOn(t, ts.URL, tokenTestSpec)
	status, full, _ := streamWith(t, ts.URL, info.ID, "?format=bin", info.Token, "bearer")
	if status != http.StatusOK {
		t.Fatalf("reference stream: status %d", status)
	}
	frame := len(full) / info.Blocks

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.Manager().Sweep()
			}
		}
	}()

	// fetch avoids t.Fatalf: it runs on non-test goroutines.
	fetch := func(from int) (int, []byte, error) {
		req, err := http.NewRequest(http.MethodGet,
			fmt.Sprintf("%s/v1/sessions/%s/stream?format=bin&from=%d&count=1", ts.URL, info.ID, from), nil)
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Authorization", "Bearer "+info.Token)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}

	const readers = 8
	const iters = 40
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				from := (g + i) % info.Blocks
				status, body, err := fetch(from)
				if err != nil || status != http.StatusOK {
					errs[g] = fmt.Errorf("iter %d from=%d: status %d err %v body %s", i, from, status, err, body)
					return
				}
				if want := full[from*frame : (from+1)*frame]; !bytes.Equal(body, want) {
					errs[g] = fmt.Errorf("iter %d from=%d: bytes differ", i, from)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}
}
