package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// atomicClock is an injectable test clock safe to advance while server
// goroutines read it.
type atomicClock struct {
	nanos atomic.Int64
}

func newAtomicClock(start time.Time) *atomicClock {
	c := &atomicClock{}
	c.nanos.Store(start.UnixNano())
	return c
}

func (c *atomicClock) now() time.Time          { return time.Unix(0, c.nanos.Load()) }
func (c *atomicClock) advance(d time.Duration) { c.nanos.Add(int64(d)) }

// TestTableBasics exercises the full CRUD surface: every session stays
// resolvable, Len counts them all, and deleting them empties the table.
func TestTableBasics(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	m := s.Manager()

	const sessions = 64
	ids := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		spec := mustSpec(t, fmt.Sprintf(`{"model": {"type": "eq22"}, "seed": %d, "blocks": 4, "idft_points": 64}`, i))
		sess, err := m.Create(spec)
		if err != nil {
			t.Fatalf("Create %d: %v", i, err)
		}
		ids = append(ids, sess.ID)
	}
	if m.Len() != sessions {
		t.Fatalf("Len = %d, want %d", m.Len(), sessions)
	}
	for _, id := range ids {
		if _, ok := m.Get(id); !ok {
			t.Fatalf("session %s not resolvable", id)
		}
	}
	for _, id := range ids {
		if !m.Delete(id) {
			t.Fatalf("Delete %s returned false", id)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
}

// TestSweepPinsActiveStreams is the regression test for the lifecycle bug
// where a consumer streaming slower than the TTL had its session swept out
// from under it mid-stream: an active stream must pin the session, and the
// idle clock must restart when the stream ends.
func TestSweepPinsActiveStreams(t *testing.T) {
	clock := newAtomicClock(time.Unix(1700000000, 0))
	s, ts := newTestServer(t, Config{
		SessionTTL: time.Minute, SweepInterval: time.Hour,
		now: clock.now,
	})
	// Large enough that the handler cannot outrun the reader into the
	// socket buffers and finish early.
	id := createSession(t, ts.URL, `{"model": {"type": "eq22"}, "seed": 7, "blocks": 100000, "idft_points": 1024}`).ID
	sess, ok := s.Manager().Get(id)
	if !ok {
		t.Fatal("created session not resolvable")
	}

	resp, err := http.Get(ts.URL + "/v1/sessions/" + id + "/stream?format=bin")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	if _, _, _, err := DecodeBinaryFrame(resp.Body); err != nil {
		t.Fatalf("first frame: %v", err)
	}

	// The reader stalls past the TTL; the pinned session must survive.
	clock.advance(10 * time.Minute)
	if n := s.Manager().Sweep(); n != 0 {
		t.Fatalf("sweep evicted %d session(s) under an active stream", n)
	}
	// The stream is still live: more frames arrive.
	for i := 0; i < 3; i++ {
		if _, _, _, err := DecodeBinaryFrame(resp.Body); err != nil {
			t.Fatalf("frame after sweep: %v", err)
		}
	}
	resp.Body.Close() // abandon; the handler unpins and touches on the way out

	// endStream restarts the idle clock, so the session outlives the stream
	// by a full TTL...
	waitForUnpin(t, sess)
	clock.advance(30 * time.Second)
	if n := s.Manager().Sweep(); n != 0 {
		t.Fatalf("sweep evicted %d session(s) within the post-stream TTL", n)
	}
	// ...and only then expires.
	clock.advance(2 * time.Minute)
	if n := s.Manager().Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d session(s) after the TTL, want 1", n)
	}
}

// waitForUnpin blocks until the session's stream refcount drains (the
// handler goroutine needs a moment to observe an abandoned connection and
// release its reference).
func waitForUnpin(t *testing.T, sess *Session) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for sess.streams.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream refcount stuck at %d", sess.streams.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCreateSweepsWhenFull covers the opportunistic sweep: a table full of
// expired sessions must not turn creates away until the janitor happens to
// run — Create reclaims the expired capacity itself.
func TestCreateSweepsWhenFull(t *testing.T) {
	clock := newAtomicClock(time.Unix(1700000000, 0))
	s := New(Config{MaxSessions: 2, SessionTTL: time.Minute, SweepInterval: time.Hour, now: clock.now})
	defer s.Close()
	m := s.Manager()

	for seed := 0; seed < 2; seed++ {
		if _, err := m.Create(mustSpec(t, fmt.Sprintf(`{"model": {"type": "eq22"}, "seed": %d, "blocks": 4, "idft_points": 64}`, seed))); err != nil {
			t.Fatalf("Create %d: %v", seed, err)
		}
	}
	// Table full and everything fresh: the cap holds.
	if _, err := m.Create(mustSpec(t, testSpec)); err == nil {
		t.Fatal("create beyond the cap succeeded with fresh sessions")
	}
	// Everything expired: the same create now reclaims and succeeds.
	clock.advance(2 * time.Minute)
	sess, err := m.Create(mustSpec(t, testSpec))
	if err != nil {
		t.Fatalf("Create after expiry: %v", err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after opportunistic sweep, want 1", m.Len())
	}
	if _, ok := m.Get(sess.ID); !ok {
		t.Fatal("fresh session not resolvable")
	}
	if evicted := s.metrics.sessionsEvicted.Load(); evicted != 2 {
		t.Fatalf("sessions_evicted = %d, want 2", evicted)
	}
}

// TestCreateAfterCloseAllRejected pins the shutdown race: a create whose
// setup straddles CloseAll must not insert into a drained table (which would
// leak an unclosable session and a phantom count).
func TestCreateAfterCloseAllRejected(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	m := s.Manager()
	if _, err := m.Create(mustSpec(t, testSpec)); err != nil {
		t.Fatalf("Create: %v", err)
	}
	m.CloseAll()
	if _, err := m.Create(mustSpec(t, testSpec)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Create after CloseAll: err = %v, want ErrShuttingDown", err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d after CloseAll, want 0", m.Len())
	}
}

// TestGetDeleteSweepRaceStress hammers the table from every mutation path at
// once. Run under -race it is the regression test for the old unlocked
// touch-after-Get, which could race Delete/Sweep closing the same session.
func TestGetDeleteSweepRaceStress(t *testing.T) {
	clock := newAtomicClock(time.Unix(1700000000, 0))
	// MaxSessions < 0 bypasses the cap (0 would select the default 256).
	s := New(Config{MaxSessions: -1, SessionTTL: time.Millisecond, SweepInterval: time.Hour, now: clock.now})
	defer s.Close()
	m := s.Manager()

	const (
		workers = 4
		rounds  = 200
	)
	specs := make([]*SessionSpec, 8)
	for i := range specs {
		specs[i] = mustSpec(t, fmt.Sprintf(`{"model": {"type": "eq22"}, "seed": %d, "blocks": 4, "idft_points": 64}`, i))
	}
	ids := make(chan string, workers*rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sess, err := m.Create(specs[(w*rounds+i)%len(specs)])
				if err != nil {
					t.Errorf("Create: %v", err)
					return
				}
				ids <- sess.ID
			}
		}(w)
	}
	var readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			seen := make([]string, 0, 64)
			for {
				select {
				case id := <-ids:
					seen = append(seen, id)
					if sess, ok := m.Get(id); ok && sess.ID != id {
						t.Errorf("Get(%s) returned session %s", id, sess.ID)
					}
					if len(seen)%3 == 0 {
						m.Delete(seen[len(seen)-1])
					}
					for _, old := range seen {
						m.Get(old)
					}
				case <-stop:
					return
				}
			}
		}()
	}
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				clock.advance(time.Millisecond)
				m.Sweep()
			}
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	m.mu.Lock()
	size := len(m.sessions)
	m.mu.Unlock()
	if size != m.Len() {
		t.Fatalf("table holds %d sessions but Len() = %d", size, m.Len())
	}
}
