package service_test

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/token"
)

// streamGate holds every stream handler it gates inside the handler's first
// Flush: the stream's first block is on the wire and its next one is not yet
// written. A held handler has not returned, so its stream is live for as long
// as the test keeps the gate shut, whatever the host's speed.
type streamGate struct {
	held chan struct{} // one send per stream that reaches the gate
	open chan struct{} // closed by release
	once sync.Once
}

// newStreamGate builds a gate for the given number of streams; held has room
// for each, so a handler never waits to announce itself.
func newStreamGate(t *testing.T, streams int) *streamGate {
	g := &streamGate{held: make(chan struct{}, streams), open: make(chan struct{})}
	// A failing test must not leave handlers held: closing the server waits
	// for them.
	t.Cleanup(g.release)
	return g
}

// release lets every held stream go on.
func (g *streamGate) release() { g.once.Do(func() { close(g.open) }) }

// gatedWriter routes a handler's flushes through the gate current when its
// request arrived (nil: no gate).
type gatedWriter struct {
	http.ResponseWriter
	gate *streamGate
}

func (w *gatedWriter) Flush() {
	w.ResponseWriter.(http.Flusher).Flush()
	if g := w.gate; g != nil {
		w.gate = nil
		g.held <- struct{}{}
		<-g.open
	}
}

// awaitHeld waits until n gated streams are held.
func (g *streamGate) awaitHeld(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.held:
		case <-time.After(30 * time.Second):
			t.Fatalf("%d of %d streams reached the gate", i, n)
		}
	}
}

// openTokenStream starts a token-only binary stream read; the response
// arrives once the server has flushed the first block.
func openTokenStream(t *testing.T, base, id string, from int, tok string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s/v1/sessions/%s/stream?format=bin&from=%d", base, id, from), nil)
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	req.Header.Set("Authorization", "Bearer "+tok)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET stream from=%d: %v", from, err)
	}
	// Closing the body ends a stream a failed test left unread.
	t.Cleanup(func() { resp.Body.Close() })
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET stream from=%d: status %d, body %s", from, resp.StatusCode, body)
	}
	return resp
}

// drain reads a stream to its end and returns the body and the blocks-sent
// trailer.
func drain(t *testing.T, resp *http.Response) ([]byte, int) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	sent, err := strconv.Atoi(resp.Trailer.Get("X-Fadingd-Blocks-Sent"))
	if err != nil {
		t.Fatalf("bad X-Fadingd-Blocks-Sent trailer %q", resp.Trailer.Get("X-Fadingd-Blocks-Sent"))
	}
	return body, sent
}

// TestShutdownAndEvictionDuringTokenStreams drives a replica through the
// failure paths of token-rebuilt streams while they are live: setup-cache
// eviction, delete and rebuild, and shutdown. Replica A is the origin;
// replica B shares its key, keeps one setup in its cache and serves the
// session from its token alone.
func TestShutdownAndEvictionDuringTokenStreams(t *testing.T) {
	const (
		blocks    = 32
		spec      = `{"model":{"type":"eq22"},"seed":7,"blocks":32,"idft_points":64}`
		otherSpec = `{"model":{"type":"eq22"},"seed":8,"blocks":32,"idft_points":64}`
	)
	a := newReplica(t, clusterKey, service.Config{})
	info := createOn(t, a.URL, spec)
	status, ref, _ := streamWith(t, a.URL, info.ID, "?format=bin", "", "none")
	if status != http.StatusOK || len(ref)%blocks != 0 {
		t.Fatalf("origin reference stream: status %d, %d bytes", status, len(ref))
	}
	frame := len(ref) / blocks

	kr, err := token.ParseKeyring(clusterKey)
	if err != nil {
		t.Fatalf("ParseKeyring: %v", err)
	}
	srv := service.New(service.Config{CacheSpecs: 1, Keyring: kr})
	var gate atomic.Pointer[streamGate]
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.Handler().ServeHTTP(&gatedWriter{ResponseWriter: w, gate: gate.Load()}, r)
	}))
	t.Cleanup(func() {
		b.Close()
		srv.Close()
	})
	froms := []int{0, 5, 17}

	// Step 1: a create of another spec evicts the live streams' setup-cache
	// entry; every stream still completes byte-identical to the origin's.
	g := newStreamGate(t, len(froms))
	gate.Store(g)
	var live []*http.Response
	for _, from := range froms {
		live = append(live, openTokenStream(t, b.URL, info.ID, from, info.Token))
	}
	g.awaitHeld(t, len(froms))
	gate.Store(nil)
	misses := scrapeCounter(t, b.URL, "fadingd_spec_cache_misses_total")
	createOn(t, b.URL, otherSpec)
	if got := scrapeCounter(t, b.URL, "fadingd_spec_cache_misses_total"); got != misses+1 {
		t.Fatalf("create of another spec: cache misses %d -> %d, want +1", misses, got)
	}
	g.release()
	for i, resp := range live {
		body, sent := drain(t, resp)
		if want := ref[froms[i]*frame:]; !bytes.Equal(body, want) {
			t.Fatalf("stream from=%d across eviction: %d bytes, want the origin's %d", froms[i], len(body), len(want))
		}
		if sent != blocks-froms[i] {
			t.Fatalf("stream from=%d: trailer reports %d blocks, want %d", froms[i], sent, blocks-froms[i])
		}
	}

	// Step 2: with the session deleted and its setup evicted, a token resume
	// rebuilds the stream from scratch, byte-identical.
	req, _ := http.NewRequest(http.MethodDelete, b.URL+"/v1/sessions/"+info.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE on B: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE on B: status %d, want 204", resp.StatusCode)
	}
	misses = scrapeCounter(t, b.URL, "fadingd_spec_cache_misses_total")
	rebuilds := scrapeCounter(t, b.URL, "fadingd_token_rebuilds_total")
	status, body, _ := streamWith(t, b.URL, info.ID, "?format=bin", info.Token, "bearer")
	if status != http.StatusOK || !bytes.Equal(body, ref) {
		t.Fatalf("token resume after delete: status %d, identical=%v", status, bytes.Equal(body, ref))
	}
	if got := scrapeCounter(t, b.URL, "fadingd_spec_cache_misses_total"); got != misses+1 {
		t.Fatalf("token rebuild after eviction: cache misses %d -> %d, want +1", misses, got)
	}
	if got := scrapeCounter(t, b.URL, "fadingd_token_rebuilds_total"); got != rebuilds+1 {
		t.Fatalf("token rebuilds %d -> %d, want +1", rebuilds, got)
	}

	// Step 3: shutdown ends every live stream at its next block boundary:
	// each stream delivers exactly the frame in flight when BeginShutdown
	// ran (the one its held flush is writing), and a trailer of 1.
	g = newStreamGate(t, len(froms))
	gate.Store(g)
	live = live[:0]
	for _, from := range froms {
		live = append(live, openTokenStream(t, b.URL, info.ID, from, info.Token))
	}
	g.awaitHeld(t, len(froms))
	gate.Store(nil)
	srv.BeginShutdown()
	g.release()
	for i, resp := range live {
		body, sent := drain(t, resp)
		if len(body)%frame != 0 {
			t.Fatalf("stream from=%d cut mid-frame: %d bytes, frame %d", froms[i], len(body), frame)
		}
		if !bytes.HasPrefix(ref[froms[i]*frame:], body) {
			t.Fatalf("stream from=%d: %d bytes are not a prefix of the origin's stream", froms[i], len(body))
		}
		if sent != 1 || len(body) != frame {
			t.Fatalf("stream from=%d: trailer reports %d blocks, received %d whole frames; want exactly 1 after shutdown", froms[i], sent, len(body)/frame)
		}
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return after shutdown")
	}
	resp, err = http.Post(b.URL+"/v1/sessions", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST after Close: %v", err)
	}
	defer resp.Body.Close()
	if msg, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(string(msg), `"shutting_down"`) {
		t.Fatalf("create after Close: status %d, body %s; want 503 shutting_down", resp.StatusCode, msg)
	}
}
