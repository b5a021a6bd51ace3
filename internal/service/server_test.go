package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSpec is the session spec the wire tests share: small enough to stream
// in milliseconds, complex-valued covariance to exercise full frames.
const testSpec = `{
	"model": {"type": "eq22"},
	"seed": 4242,
	"blocks": 8,
	"idft_points": 64
}`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// createSession POSTs spec and returns the decoded info response.
func createSession(t *testing.T, base, spec string) sessionInfo {
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
	var info sessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatalf("decode session info: %v", err)
	}
	return info
}

// fetchStream GETs a stream and returns status plus raw payload bytes.
func fetchStream(t *testing.T, base, id, params string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id + "/stream" + params)
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	return resp.StatusCode, body
}

// TestWireDeterminism is the release gate in unit-test form: for a fixed
// spec, the concatenated payload must be byte-identical across servers and
// across any resume point, in both formats.
func TestWireDeterminism(t *testing.T) {
	_, first := newTestServer(t, Config{})
	_, second := newTestServer(t, Config{})

	for _, format := range []string{FormatNDJSON, FormatBinary} {
		idFirst := createSession(t, first.URL, testSpec).ID
		idSecond := createSession(t, second.URL, testSpec).ID

		status, fullFirst := fetchStream(t, first.URL, idFirst, "?format="+format)
		if status != http.StatusOK {
			t.Fatalf("[%s] full stream (first server): status %d", format, status)
		}
		status, fullSecond := fetchStream(t, second.URL, idSecond, "?format="+format)
		if status != http.StatusOK {
			t.Fatalf("[%s] full stream (second server): status %d", format, status)
		}
		if !bytes.Equal(fullFirst, fullSecond) {
			t.Fatalf("[%s] payload differs between the two servers", format)
		}

		// Resume at every split point: head ++ tail must equal the full pass.
		for from := 1; from < 8; from++ {
			_, head := fetchStream(t, second.URL, idSecond, fmt.Sprintf("?format=%s&count=%d", format, from))
			status, tail := fetchStream(t, second.URL, idSecond, fmt.Sprintf("?format=%s&from=%d", format, from))
			if status != http.StatusOK {
				t.Fatalf("[%s] resume from=%d: status %d", format, from, status)
			}
			if !bytes.Equal(append(head, tail...), fullSecond) {
				t.Fatalf("[%s] resume from=%d: head+tail != full stream", format, from)
			}
		}
	}
}

// TestConcurrentStreamsShareOneSession hammers a single session from many
// goroutines at different offsets; every reader must see the same bytes.
// Run under -race in CI this also proves the serving path is data-race free.
func TestConcurrentStreamsShareOneSession(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testSpec).ID
	_, full := fetchStream(t, ts.URL, id, "?format=bin")

	const readers = 8
	var wg sync.WaitGroup
	errs := make([]error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			from := g % 8
			resp, err := http.Get(fmt.Sprintf("%s/v1/sessions/%s/stream?format=bin&from=%d", ts.URL, id, from))
			if err != nil {
				errs[g] = err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[g] = err
				return
			}
			// Compare against the tail of the full pass: each binary frame of
			// this spec has fixed size, so offsets are computable.
			frameSize := len(full) / 8
			if !bytes.Equal(body, full[from*frameSize:]) {
				errs[g] = fmt.Errorf("reader %d (from=%d) diverged", g, from)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNDJSONBinaryEquivalence decodes both formats and compares values
// bit for bit (JSON float64 round-trips exactly through Go's shortest-form
// encoder).
func TestNDJSONBinaryEquivalence(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testSpec).ID

	_, ndjson := fetchStream(t, ts.URL, id, "?format=ndjson&gaussian=1")
	_, bin := fetchStream(t, ts.URL, id, "?format=bin&gaussian=1")

	binReader := bytes.NewReader(bin)
	scanner := bufio.NewScanner(bytes.NewReader(ndjson))
	scanner.Buffer(nil, 1<<24)
	blocks := 0
	for scanner.Scan() {
		var rec struct {
			Block     uint64         `json:"block"`
			Envelopes [][]float64    `json:"envelopes"`
			Gaussian  [][][2]float64 `json:"gaussian"`
		}
		if err := json.Unmarshal(scanner.Bytes(), &rec); err != nil {
			t.Fatalf("block %d: bad NDJSON: %v", blocks, err)
		}
		index, envelopes, gaussian, err := DecodeBinaryFrame(binReader)
		if err != nil {
			t.Fatalf("block %d: bad binary frame: %v", blocks, err)
		}
		if index != rec.Block {
			t.Fatalf("block %d: ndjson index %d, binary index %d", blocks, rec.Block, index)
		}
		if len(envelopes) != len(rec.Envelopes) {
			t.Fatalf("block %d: row count mismatch", blocks)
		}
		for j := range envelopes {
			for l := range envelopes[j] {
				if envelopes[j][l] != rec.Envelopes[j][l] {
					t.Fatalf("block %d envelope %d sample %d: binary %v != ndjson %v",
						blocks, j, l, envelopes[j][l], rec.Envelopes[j][l])
				}
				if re, im := real(gaussian[j][l]), imag(gaussian[j][l]); re != rec.Gaussian[j][l][0] || im != rec.Gaussian[j][l][1] {
					t.Fatalf("block %d gaussian %d sample %d differs between formats", blocks, j, l)
				}
			}
		}
		blocks++
	}
	if blocks != 8 {
		t.Fatalf("decoded %d blocks, want 8", blocks)
	}
	if _, _, _, err := DecodeBinaryFrame(binReader); err != io.EOF {
		t.Fatalf("binary stream has trailing data (err %v)", err)
	}
}

// TestResumePastEndOfStream pins the finite-stream contract.
func TestResumePastEndOfStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testSpec).ID
	for _, from := range []int{8, 9, 1000} {
		status, body := fetchStream(t, ts.URL, id, fmt.Sprintf("?from=%d", from))
		if status != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("from=%d: status %d (body %s), want 416", from, status, body)
		}
	}
	// The last valid position still works.
	status, body := fetchStream(t, ts.URL, id, "?from=7")
	if status != http.StatusOK || len(bytes.TrimSpace(body)) == 0 {
		t.Fatalf("from=7: status %d, %d payload bytes", status, len(body))
	}
}

// TestMalformedSpecsRejected mirrors the scenario loader's strictness over
// the wire: unknown fields, unknown models, and over-limit requests are all
// 400s, and none of them leak a session.
func TestMalformedSpecsRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Limits: Limits{MaxBlocks: 100, MaxEnvelopes: 8}})
	cases := map[string]string{
		"unknown top-level field": `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "bogus": true}`,
		"unknown model field":     `{"model": {"type": "eq22", "typo": 3}, "seed": 1, "blocks": 4}`,
		"unknown model type":      `{"model": {"type": "warp"}, "seed": 1, "blocks": 4}`,
		"missing model":           `{"seed": 1, "blocks": 4}`,
		"zero blocks":             `{"model": {"type": "eq22"}, "seed": 1}`,
		"blocks over limit":       `{"model": {"type": "eq22"}, "seed": 1, "blocks": 101}`,
		"envelopes over limit":    `{"model": {"type": "identity", "n": 9}, "seed": 1, "blocks": 4}`,
		"bad doppler":             `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "normalized_doppler": 0.7}`,
		"non-power-of-two M":      `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "idft_points": 1000}`,
		"trailing garbage":        `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4} {"again": true}`,
		"not json":                `hello`,
		// The covariance this spectral model builds holds NaN.
		"non-finite covariance": `{"model":{"type":"spectral","n":3,"carrier_spacing_hz":1e300,"max_doppler_hz":50,"rms_delay_spread_s":1e300,"delay_step_s":1e300},"seed":1,"blocks":2}`,
		// Finite covariance targets outside the scale window.
		"covariance scale 1e-170": `{"model":{"type":"identity","n":2,"power":1e-170},"seed":1,"blocks":2}`,
		"covariance scale 2e160":  `{"model":{"type":"explicit","covariance":[[1e160,2e160],[2e160,1e160]]},"seed":1,"blocks":2}`,
		"covariance scale 1e308":  `{"model":{"type":"identity","n":2,"power":1e308},"seed":1,"blocks":2}`,
	}
	for name, spec := range cases {
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (body %s), want 400", name, resp.StatusCode, body)
		}
		var envelope struct {
			Code  string `json:"code"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error == "" || envelope.Code != "bad_spec" {
			t.Errorf("%s: want a bad_spec error envelope (body %s)", name, body)
		}
	}
	if n := s.Manager().Len(); n != 0 {
		t.Fatalf("%d sessions leaked by rejected specs", n)
	}
	if got := s.metrics.specsRejected.Load(); got != int64(len(cases)) {
		t.Fatalf("specs_rejected = %d, want %d", got, len(cases))
	}
}

// TestEvictionMidStream deletes a session while a client is mid-read: the
// stream must terminate promptly (truncated, not hung), and the session must
// be gone afterwards.
func TestEvictionMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := `{"model": {"type": "eq22"}, "seed": 7, "blocks": 100000, "idft_points": 256}`
	id := createSession(t, ts.URL, spec).ID

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/stream?format=bin")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	// Consume one frame to prove the stream is live, then evict.
	if _, _, _, err := DecodeBinaryFrame(resp.Body); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if !s.Manager().Delete(id) {
		t.Fatal("Delete returned false for a live session")
	}
	// The remainder must end (truncation is fine, hanging is the bug).
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(io.Discard, resp.Body)
		done <- err
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not terminate after eviction")
	}
	status, _ := fetchStream(t, ts.URL, id, "")
	if status != http.StatusNotFound {
		t.Fatalf("GET after eviction: status %d, want 404", status)
	}
}

// TestTTLSweep drives the eviction clock by hand.
func TestTTLSweep(t *testing.T) {
	clock := time.Unix(1700000000, 0)
	now := func() time.Time { return clock }
	s := New(Config{SessionTTL: time.Minute, SweepInterval: time.Hour, now: now})
	defer s.Close()

	spec, err := ParseSpec(strings.NewReader(testSpec))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	sess, err := s.Manager().Create(spec)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	clock = clock.Add(30 * time.Second)
	if n := s.Manager().Sweep(); n != 0 {
		t.Fatalf("swept %d sessions before TTL", n)
	}
	// A touch resets the clock.
	if _, ok := s.Manager().Get(sess.ID); !ok {
		t.Fatal("session vanished early")
	}
	clock = clock.Add(61 * time.Second)
	if n := s.Manager().Sweep(); n != 1 {
		t.Fatalf("swept %d sessions after TTL, want 1", n)
	}
	if !sess.closed() {
		t.Fatal("evicted session not closed")
	}
	if _, ok := s.Manager().Get(sess.ID); ok {
		t.Fatal("evicted session still resolvable")
	}
	if got := s.metrics.sessionsEvicted.Load(); got != 1 {
		t.Fatalf("sessions_evicted = %d, want 1", got)
	}
}

// postSpec POSTs a spec and returns the raw response (any status).
func postSpec(t *testing.T, base, spec string) *http.Response {
	t.Helper()
	resp, err := http.Post(base+"/v1/sessions", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	return resp
}

// decodeErrorBody decodes the structured JSON error envelope.
func decodeErrorBody(t *testing.T, resp *http.Response) errorBody {
	t.Helper()
	var body errorBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	return body
}

// TestSessionLimit verifies the capacity cap is a structured 429 — code
// "session_limit", a parseable Retry-After — distinguishable from the
// shutting-down 503, and that the rejection clears once a session is deleted.
func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 2})
	first := createSession(t, ts.URL, testSpec)
	createSession(t, ts.URL, testSpec)

	resp := postSpec(t, ts.URL, testSpec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third session: status %d, want 429", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", ra)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q, want application/json", ct)
	}
	body := decodeErrorBody(t, resp)
	if body.Code != "session_limit" || body.Error == "" {
		t.Fatalf("error body = %+v, want code session_limit with a message", body)
	}

	// Freeing one slot must clear the rejection: 429 means "this replica will
	// have capacity again", unlike the terminal shutting-down 503.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+first.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	del.Body.Close()
	createSession(t, ts.URL, testSpec)
}

// TestShuttingDownCreate verifies a create racing shutdown is a 503 with
// code "shutting_down" and a Retry-After hint — the 429 capacity path and the
// terminal 503 must stay distinguishable for clients and load balancers.
func TestShuttingDownCreate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Manager().CloseAll()

	resp := postSpec(t, ts.URL, testSpec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create after CloseAll: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("shutting-down 503 carries no Retry-After")
	}
	if body := decodeErrorBody(t, resp); body.Code != "shutting_down" {
		t.Fatalf("error code = %q, want shutting_down", body.Code)
	}
}

// TestCreateTimeout verifies a create whose setup outruns CreateTimeout is a
// 503 with code "create_timeout" and Retry-After, that the background create
// does not leak a session, and that the honest retry succeeds (the abandoned
// setup landed in the cache).
//
// The test holds the setup cache's lock until the 503 is in hand, so the
// setup cannot finish first: a 1 ns timeout alone still loses the race
// whenever the create goroutine completes before the handler reaches its
// select, as it can on a loaded host.
func TestCreateTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{CreateTimeout: time.Nanosecond})
	s.cache.mu.Lock()
	resp := postSpec(t, ts.URL, testSpec)
	defer resp.Body.Close()
	// The abandoned create has reserved its slot and waits on the cache.
	deadline := time.Now().Add(5 * time.Second)
	for s.Manager().Len() != 1 {
		if time.Now().After(deadline) {
			s.cache.mu.Unlock()
			t.Fatalf("abandoned create not in flight: %d sessions reserved", s.Manager().Len())
		}
		time.Sleep(time.Millisecond)
	}
	s.cache.mu.Unlock()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out create: status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("create-timeout 503 carries no Retry-After")
	}
	if body := decodeErrorBody(t, resp); body.Code != "create_timeout" {
		t.Fatalf("error code = %q, want create_timeout", body.Code)
	}

	// The abandoned background create must delete its session once finished.
	deadline = time.Now().Add(5 * time.Second)
	for s.Manager().Len() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned create leaked: %d sessions live", s.Manager().Len())
		}
		time.Sleep(time.Millisecond)
	}

	// A server with a sane timeout accepts the same spec (and, on a shared
	// cache, would hit the artifact the abandoned setup produced).
	_, sane := newTestServer(t, Config{CreateTimeout: time.Minute})
	createSession(t, sane.URL, testSpec)
}

// TestErrorBodyCodes spot-checks the stable error-code vocabulary across the
// non-create handlers.
func TestErrorBodyCodes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testSpec).ID

	resp, err := http.Get(ts.URL + "/v1/sessions/nosuch")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if body := decodeErrorBody(t, resp); resp.StatusCode != http.StatusNotFound || body.Code != "not_found" {
		t.Fatalf("unknown session: status %d code %q, want 404 not_found", resp.StatusCode, body.Code)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/sessions/" + id + "/stream?from=8")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	if body := decodeErrorBody(t, resp); resp.StatusCode != http.StatusRequestedRangeNotSatisfiable || body.Code != "range" {
		t.Fatalf("past-EOS resume: status %d code %q, want 416 range", resp.StatusCode, body.Code)
	}
	resp.Body.Close()

	resp = postSpec(t, ts.URL, `{"model": {"type": "eq22"}, "seed": 1}`)
	if body := decodeErrorBody(t, resp); resp.StatusCode != http.StatusBadRequest || body.Code != "bad_spec" {
		t.Fatalf("invalid spec: status %d code %q, want 400 bad_spec", resp.StatusCode, body.Code)
	}
	resp.Body.Close()
}

// TestHealthzAndMetrics sanity-checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createSession(t, ts.URL, testSpec).ID
	fetchStream(t, ts.URL, id, "?format=bin")

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	var health struct {
		Status   string `json:"status"`
		Sessions int    `json:"sessions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Sessions != 1 {
		t.Fatalf("healthz = %+v", health)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"fadingd_sessions_active 1",
		"fadingd_blocks_served_total 8",
		"fadingd_blocks_per_second ",
		"fadingd_spec_cache_hits_total 0",
		"fadingd_spec_cache_misses_total 1",
		"fadingd_spec_cache_size 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestStreamTrailerReportsSentBlocks pins the truncation contract: the
// X-Fadingd-Blocks header is a pre-stream promise, and the
// X-Fadingd-Blocks-Sent trailer is the post-stream truth. On a complete
// stream they agree; on a stream cut mid-flight (deletion, shutdown, a
// failed generation) the trailer carries the smaller count a client can use
// to detect the truncation.
func TestStreamTrailerReportsSentBlocks(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// Complete stream: trailer == promised header.
	id := createSession(t, ts.URL, testSpec).ID
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/stream?format=bin")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	// The client promotes announced trailers into resp.Trailer before the
	// body is read; the key's presence proves the server declared it.
	if _, announced := resp.Trailer["X-Fadingd-Blocks-Sent"]; !announced {
		t.Fatalf("response does not announce the X-Fadingd-Blocks-Sent trailer (Trailer map %v)", resp.Trailer)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("drain: %v", err)
	}
	resp.Body.Close()
	promised := resp.Header.Get("X-Fadingd-Blocks")
	if sent := resp.Trailer.Get("X-Fadingd-Blocks-Sent"); sent != promised || sent != "8" {
		t.Fatalf("complete stream: sent trailer %q, promised header %q, want both \"8\"", sent, promised)
	}

	// Truncated stream: delete the session mid-read; the trailer must report
	// fewer blocks than promised.
	id = createSession(t, ts.URL, `{"model": {"type": "eq22"}, "seed": 7, "blocks": 100000, "idft_points": 256}`).ID
	resp, err = http.Get(ts.URL + "/v1/sessions/" + id + "/stream?format=bin")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if _, _, _, err := DecodeBinaryFrame(resp.Body); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if !s.Manager().Delete(id) {
		t.Fatal("Delete returned false for a live session")
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatalf("drain truncated stream: %v", err)
	}
	sent, err := strconv.Atoi(resp.Trailer.Get("X-Fadingd-Blocks-Sent"))
	if err != nil {
		t.Fatalf("truncated stream: bad X-Fadingd-Blocks-Sent trailer %q", resp.Trailer.Get("X-Fadingd-Blocks-Sent"))
	}
	if sent < 1 || sent >= 100000 {
		t.Fatalf("truncated stream reported %d blocks sent, want 1 <= sent < 100000", sent)
	}
}

// TestServiceGenerationPathNoAllocs is the acceptance gate on the serving
// hot path: with a pre-warmed session (reader parked, encoder buffer grown),
// pushing a block through the real pipeline — acquire reader, BlockAt,
// binary encode, release — allocates nothing.
func TestServiceGenerationPathNoAllocs(t *testing.T) {
	spec, err := ParseSpec(strings.NewReader(`{
		"model": {"type": "eq22"}, "seed": 9, "blocks": 1024, "idft_points": 256
	}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	stream, err := buildStream(spec)
	if err != nil {
		t.Fatalf("buildStream: %v", err)
	}
	sess := newSession(spec, stream, time.Now())
	enc := &binaryEncoder{}
	// Warm: the first acquire builds the reader, its first generation shapes
	// the block, the first encode grows the buffer.
	rd, err := sess.acquireReader()
	if err != nil {
		t.Fatalf("acquireReader: %v", err)
	}
	if err := rd.cur.BlockAt(0, &rd.block); err != nil {
		t.Fatalf("warm BlockAt: %v", err)
	}
	if _, err := enc.encode(io.Discard, 0, &rd.block, true); err != nil {
		t.Fatalf("warm encode: %v", err)
	}
	sess.releaseReader(rd)

	var i uint64
	allocs := testing.AllocsPerRun(100, func() {
		rd, err := sess.acquireReader()
		if err != nil {
			t.Fatalf("acquireReader: %v", err)
		}
		index := i % 1024
		if err := rd.cur.BlockAt(index, &rd.block); err != nil {
			t.Fatalf("BlockAt(%d): %v", index, err)
		}
		if _, err := enc.encode(io.Discard, index, &rd.block, true); err != nil {
			t.Fatalf("encode(%d): %v", index, err)
		}
		sess.releaseReader(rd)
		i++
	})
	if allocs != 0 {
		t.Fatalf("service generation path allocated %.1f times per block, want 0", allocs)
	}
}

// TestStreamedSessionRetainsOneBlock bounds what a session keeps after one
// stream at the defaults: the one parked reader, a cursor plus a single
// block. Streaming 32 blocks of an N = 32, M = 4096 session must grow the
// heap by less than two blocks' storage (24 bytes per sample: an envelope
// float64 and a complex128 Gaussian).
func TestStreamedSessionRetainsOneBlock(t *testing.T) {
	const n, m, blocks = 32, 4096, 32
	s, ts := newTestServer(t, Config{})
	info := createSession(t, ts.URL, fmt.Sprintf(
		`{"model": {"type": "exponential", "n": %d, "rho": 0.7}, "seed": 11, "blocks": %d, "idft_points": %d}`, n, blocks, m))
	sess, ok := s.Manager().Get(info.ID)
	if !ok {
		t.Fatal("created session not resolvable")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	resp, err := http.Get(ts.URL + "/v1/sessions/" + info.ID + "/stream?format=bin")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if sent := resp.Trailer.Get("X-Fadingd-Blocks-Sent"); sent != strconv.Itoa(blocks) {
		t.Fatalf("stream sent %q blocks, want %d", sent, blocks)
	}
	waitForUnpin(t, sess)
	runtime.GC()
	runtime.ReadMemStats(&after)

	const limit = 2 * n * m * 24
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown >= limit {
		t.Errorf("heap grew by %.2f MiB after one stream, want < %.2f MiB (two blocks)",
			float64(grown)/(1<<20), float64(limit)/(1<<20))
	}
}
