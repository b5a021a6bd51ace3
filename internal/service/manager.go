package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrSessionLimit reports that the session table is full.
var ErrSessionLimit = errors.New("service: session limit reached")

// ErrShuttingDown reports a create that lost the race against CloseAll.
var ErrShuttingDown = errors.New("service: server shutting down")

// Manager owns the session table: creation against a capacity cap (with
// setup-artifact caching), lookup with TTL touching, explicit deletion, and
// idle eviction. The table is one map behind one mutex. All methods are safe
// for concurrent use.
type Manager struct {
	mu sync.Mutex
	// guarded-by: mu
	sessions map[string]*Session

	count     atomic.Int64 // live sessions
	lastSweep atomic.Int64 // unix nanoseconds of the latest sweep start
	closed    atomic.Bool  // set by CloseAll; rejects late creates
	ttl       time.Duration
	max       int
	now       func() time.Time
	metrics   *metrics
	cache     *setupCache
}

// newManager builds an empty Manager. now is injectable for eviction tests.
func newManager(ttl time.Duration, max int, now func() time.Time, m *metrics, cache *setupCache) *Manager {
	return &Manager{
		sessions: make(map[string]*Session),
		ttl:      ttl,
		max:      max,
		now:      now,
		metrics:  m,
		cache:    cache,
	}
}

// opportunisticSweepGap bounds how often the create path may fall back to a
// full-table sweep: rejected creates against a genuinely full table must
// stay O(1), not hand every anonymous client a full-table scan.
const opportunisticSweepGap = time.Second

// Create validates nothing — the caller parses and validates the spec — and
// builds plus registers a session, sharing the spec's setup artifact through
// the cache. When the table is full it sweeps opportunistically (at most
// once per opportunisticSweepGap across all creates) before giving up, so a
// table full of expired sessions never blocks new work until the janitor's
// next tick, while a full table of live ones keeps rejecting cheaply.
func (m *Manager) Create(spec *SessionSpec) (*Session, error) {
	if !m.reserve() {
		if !m.trySweep() || !m.reserve() {
			return nil, fmt.Errorf("%w (%d active)", ErrSessionLimit, m.Len())
		}
	}
	stream, err := m.cache.stream(spec)
	if err != nil {
		m.count.Add(-1)
		return nil, err
	}
	s := newSession(spec, stream, m.now())
	m.mu.Lock()
	if m.closed.Load() {
		// The setup ran outside any lock, so CloseAll may have drained the
		// table in the meantime; inserting now would leak an unclosable
		// session. The check happens under the table lock: either CloseAll
		// has not drained the table yet (and will remove the session), or
		// the flag is already visible here.
		m.mu.Unlock()
		m.count.Add(-1)
		s.close()
		return nil, ErrShuttingDown
	}
	m.sessions[s.ID] = s
	m.mu.Unlock()
	m.metrics.sessionsCreated.Add(1)
	return s, nil
}

// reserve claims one slot against the capacity cap, undoing the claim when
// the table is full. Claim-then-check keeps concurrent creates from
// overshooting the cap without holding the table lock across their setup.
func (m *Manager) reserve() bool {
	if n := m.count.Add(1); m.max > 0 && n > int64(m.max) {
		m.count.Add(-1)
		return false
	}
	return true
}

// Get returns the session and marks it active. The touch happens under the
// table lock, so it cannot race a concurrent Delete/Sweep closing the
// session (a touched session is by definition still in the table).
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, false
	}
	s.touch(m.now())
	return s, true
}

// GetForStream is Get for the streaming path: it additionally acquires a
// stream reference under the table lock, pinning the session against TTL
// eviction for as long as the stream is live. The caller must release with
// Session.endStream once the stream finishes.
func (m *Manager) GetForStream(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, false
	}
	s.touch(m.now())
	s.streams.Add(1)
	return s, true
}

// AdoptForStream installs a token-rebuilt session under its original id and
// returns it with a stream reference held (release with Session.endStream) —
// the mechanism that turns the table into a cache: the token proved the
// session exists, the table just remembers the rebuild. The stream is shared
// through the setup cache, so re-adopting a channel any session already
// carried here is O(1).
//
// The insert follows GetForStream's refcount discipline: the stream
// reference is acquired under the table lock before the session is
// published, so a TTL sweep racing the adoption sees either no entry or a
// pinned one — never an unpinned session it could evict mid-handshake. When
// the table is full (even after an opportunistic sweep) the session is
// served without being cached: a stateless replica under session pressure
// degrades to per-request rebuilds instead of refusing resumes.
func (m *Manager) AdoptForStream(id string, spec *SessionSpec) (*Session, error) {
	if m.closed.Load() {
		return nil, ErrShuttingDown
	}
	stream, err := m.cache.stream(spec)
	if err != nil {
		return nil, err
	}
	reserved := m.reserve()
	if !reserved && m.trySweep() {
		reserved = m.reserve()
	}
	s := newSessionWithID(id, spec, stream, m.now())
	m.mu.Lock()
	if exist, ok := m.sessions[id]; ok {
		// A concurrent resume (or the origin create) won the insert race;
		// serve through the registered session.
		exist.touch(m.now())
		exist.streams.Add(1)
		m.mu.Unlock()
		if reserved {
			m.count.Add(-1)
		}
		return exist, nil
	}
	if m.closed.Load() {
		m.mu.Unlock()
		if reserved {
			m.count.Add(-1)
		}
		return nil, ErrShuttingDown
	}
	s.streams.Add(1)
	if reserved {
		m.sessions[id] = s
	}
	m.mu.Unlock()
	if reserved {
		m.metrics.sessionsAdopted.Add(1)
	}
	return s, nil
}

// Delete removes and closes a session, terminating its in-flight streams.
// Unlike TTL eviction, an explicit delete is never deferred by active
// streams: the client asked for the session to die.
func (m *Manager) Delete(id string) bool {
	m.mu.Lock()
	s, ok := m.sessions[id]
	delete(m.sessions, id)
	m.mu.Unlock()
	if !ok {
		return false
	}
	m.count.Add(-1)
	s.close()
	m.metrics.sessionsDeleted.Add(1)
	return true
}

// trySweep runs one sweep on behalf of a rejected create, unless another
// sweep started within the gap (then the claim fails and the create is
// turned away — the janitor catches up). The CAS makes concurrent rejected
// creates elect a single sweeper. It reports whether a sweep freed capacity.
func (m *Manager) trySweep() bool {
	last := m.lastSweep.Load()
	now := m.now().UnixNano()
	if now-last < int64(opportunisticSweepGap) || !m.lastSweep.CompareAndSwap(last, now) {
		return false
	}
	return m.Sweep() > 0
}

// Sweep evicts every session idle longer than the TTL and returns how many
// it removed. Sessions with active streams are pinned: a consumer slower
// than the TTL keeps its session alive, and the idle clock restarts when its
// last stream ends.
func (m *Manager) Sweep() int {
	now := m.now()
	m.lastSweep.Store(now.UnixNano())
	var victims []*Session
	m.mu.Lock()
	for id, s := range m.sessions {
		if s.streams.Load() == 0 && s.idle(now) > m.ttl {
			delete(m.sessions, id)
			victims = append(victims, s)
		}
	}
	m.mu.Unlock()
	for _, s := range victims {
		s.close()
	}
	m.count.Add(-int64(len(victims)))
	m.metrics.sessionsEvicted.Add(int64(len(victims)))
	return len(victims)
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	return int(m.count.Load())
}

// CloseAll empties the table, terminating every stream, and turns away any
// create still mid-setup (shutdown path).
func (m *Manager) CloseAll() {
	m.closed.Store(true)
	m.mu.Lock()
	victims := make([]*Session, 0, len(m.sessions))
	for id, s := range m.sessions {
		delete(m.sessions, id)
		victims = append(victims, s)
	}
	m.mu.Unlock()
	for _, s := range victims {
		s.close()
	}
	m.count.Add(-int64(len(victims)))
}
