package service

import (
	"fmt"
	"sync"

	rayleigh "repro"
)

// setupCache is the content-addressed store behind session creation. A
// session's expensive setup — covariance assembly, PSD forcing, the coloring
// root, the Doppler panel plan — lives inside its immutable *rayleigh.Stream,
// which is a pure function of the spec's setupKey. The cache shares one
// Stream across every session with the same key, so only the first create of
// a spec pays the O(N³) setup; later creates (and concurrent duplicates, via
// singleflight entries) reuse it.
//
// Eviction never invalidates: a Stream is immutable, so evicted entries stay
// valid for the sessions already holding them and are simply rebuilt on the
// next miss. The memory bound is therefore cap completed entries in the map,
// plus whatever live sessions still pin outside it.
type setupCache struct {
	cap     int
	metrics *metrics

	mu      sync.Mutex
	entries map[string]*cacheEntry
	seq     uint64 // LRU clock: bumped on every touch
}

// cacheEntry is one setup artifact, possibly still being built. ready is
// closed exactly once when stream/err are final; waiters block on it, which
// is the singleflight: concurrent creates of one spec do the setup once.
type cacheEntry struct {
	ready    chan struct{}
	stream   *rayleigh.Stream
	err      error
	lastUsed uint64
}

// newSetupCache builds a cache bounded to capacity completed entries.
// capacity < 1 disables caching entirely (every create builds).
func newSetupCache(capacity int, m *metrics) *setupCache {
	return &setupCache{
		cap:     capacity,
		metrics: m,
		entries: make(map[string]*cacheEntry),
	}
}

// buildStream performs the full uncached session setup for a validated spec.
func buildStream(spec *SessionSpec) (*rayleigh.Stream, error) {
	target, err := spec.Model.Build()
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	rows := make([][]complex128, target.Rows())
	for i := range rows {
		rows[i] = target.Row(i)
	}
	return rayleigh.NewStream(rayleigh.RealTimeConfig{
		Covariance:        rows,
		IDFTPoints:        spec.blockLength(),
		NormalizedDoppler: spec.doppler(),
		InputVariance:     spec.InputVariance,
		Seed:              spec.Seed,
		Method:            spec.Method,
		Fading:            spec.Model.Fading,
		FadingParams:      spec.Model.Params,
	})
}

// stream returns the shared Stream for spec, building it on a miss. It is
// safe for concurrent use; every concurrent miss on one key performs the
// setup exactly once and shares the result (or the error, though errored
// entries are dropped so later creates retry).
func (c *setupCache) stream(spec *SessionSpec) (*rayleigh.Stream, error) {
	if c.cap < 1 {
		return buildStream(spec)
	}
	key := spec.setupKey()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.seq++
		e.lastUsed = c.seq
		c.mu.Unlock()
		<-e.ready
		// A join on a build that failed is not a hit: nothing was shared.
		if e.err == nil {
			c.metrics.specCacheHits.Add(1)
		}
		return e.stream, e.err
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.seq++
	e.lastUsed = c.seq
	c.entries[key] = e
	c.mu.Unlock()
	c.metrics.specCacheMisses.Add(1)

	e.stream, e.err = buildStream(spec)
	close(e.ready)
	c.mu.Lock()
	if e.err != nil {
		// Failed setups are not cached and evict nothing: the entry
		// satisfied concurrent waiters, but the next create should retry
		// from scratch.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		// The creating session uses the new setup now, so it is the most
		// recently used one when the table is brought back within cap.
		c.seq++
		e.lastUsed = c.seq
		c.evictLocked()
	}
	c.mu.Unlock()
	return e.stream, e.err
}

// evictLocked drops least-recently-used completed entries until the table is
// within cap; it runs after each successful build. Entries still being built
// are never evicted (their waiters hold them); the table may transiently
// exceed cap by the in-flight build count.
func (c *setupCache) evictLocked() {
	for len(c.entries) > c.cap {
		var victimKey string
		var victim *cacheEntry
		for k, e := range c.entries {
			select {
			case <-e.ready:
			default:
				continue // in-flight
			}
			if victim == nil || e.lastUsed < victim.lastUsed {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(c.entries, victimKey)
	}
}

// size reports the number of cached artifacts (the /metrics gauge).
func (c *setupCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
