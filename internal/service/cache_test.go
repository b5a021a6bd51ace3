package service

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

// mustSpec parses a spec literal or fails the test.
func mustSpec(t *testing.T, body string) *SessionSpec {
	t.Helper()
	spec, err := ParseSpec(strings.NewReader(body))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	return spec
}

// TestSetupCacheSharesStreamAcrossSessions is the tentpole's core assertion:
// two sessions created from identical specs hold the same *rayleigh.Stream
// (pointer identity — one setup artifact, not two equal ones), and the
// hit/miss counters account for exactly one build.
func TestSetupCacheSharesStreamAcrossSessions(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	a, err := s.Manager().Create(mustSpec(t, testSpec))
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	b, err := s.Manager().Create(mustSpec(t, testSpec))
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if a.Stream() != b.Stream() {
		t.Fatal("identical specs built two distinct setup artifacts")
	}
	if hits, misses := s.metrics.specCacheHits.Load(), s.metrics.specCacheMisses.Load(); hits != 1 || misses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", hits, misses)
	}

	// A different seed is a different channel: distinct artifact, second miss.
	c, err := s.Manager().Create(mustSpec(t, `{"model": {"type": "eq22"}, "seed": 4243, "blocks": 8, "idft_points": 64}`))
	if err != nil {
		t.Fatalf("Create c: %v", err)
	}
	if c.Stream() == a.Stream() {
		t.Fatal("distinct seeds shared one setup artifact")
	}
	if misses := s.metrics.specCacheMisses.Load(); misses != 2 {
		t.Fatalf("cache misses = %d, want 2", misses)
	}
}

// TestSetupCacheKeyIgnoresBlocks pins the keying rule: blocks only bounds the
// served range, so sessions of different lengths over the same channel share
// one artifact — and defaults are resolved, so an omitted field and its
// explicit default collide.
func TestSetupCacheKeyIgnoresBlocks(t *testing.T) {
	short := mustSpec(t, `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4}`)
	long := mustSpec(t, `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4096}`)
	if short.setupKey() != long.setupKey() {
		t.Fatal("setup key depends on blocks")
	}
	expl := mustSpec(t, `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4,
		"idft_points": 4096, "normalized_doppler": 0.05, "input_variance": 0.5, "method": "generalized"}`)
	if short.setupKey() != expl.setupKey() {
		t.Fatal("explicit defaults hash differently from omitted fields")
	}
	other := mustSpec(t, `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "idft_points": 2048}`)
	if short.setupKey() == other.setupKey() {
		t.Fatal("setup key ignores the block length")
	}
}

// TestSetupCacheSingleflight launches many concurrent creates of one spec:
// the setup must run exactly once, and every session must end up on the one
// shared artifact.
func TestSetupCacheSingleflight(t *testing.T) {
	s := New(Config{})
	defer s.Close()

	const goroutines = 16
	spec := mustSpec(t, testSpec)
	sessions := make([]*Session, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sessions[g], errs[g] = s.Manager().Create(spec)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("create %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if sessions[g].Stream() != sessions[0].Stream() {
			t.Fatalf("session %d holds a different artifact", g)
		}
	}
	if misses := s.metrics.specCacheMisses.Load(); misses != 1 {
		t.Fatalf("%d concurrent creates performed %d setups, want 1", goroutines, misses)
	}
}

// TestSetupCacheLRUBound verifies the memory bound: the cache never holds
// more completed artifacts than its cap, evicting least-recently-used first.
func TestSetupCacheLRUBound(t *testing.T) {
	s := New(Config{CacheSpecs: 2})
	defer s.Close()

	specs := []string{
		`{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "idft_points": 64}`,
		`{"model": {"type": "eq22"}, "seed": 2, "blocks": 4, "idft_points": 64}`,
		`{"model": {"type": "eq22"}, "seed": 3, "blocks": 4, "idft_points": 64}`,
	}
	for _, body := range specs {
		if _, err := s.Manager().Create(mustSpec(t, body)); err != nil {
			t.Fatalf("Create: %v", err)
		}
	}
	if size := s.cache.size(); size != 2 {
		t.Fatalf("cache holds %d artifacts, cap 2", size)
	}
	// Seed 1 was the LRU victim: recreating it is a miss; seed 3 is a hit.
	misses := s.metrics.specCacheMisses.Load()
	if _, err := s.Manager().Create(mustSpec(t, specs[2])); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got := s.metrics.specCacheMisses.Load(); got != misses {
		t.Fatal("recently used artifact was evicted")
	}
	if _, err := s.Manager().Create(mustSpec(t, specs[0])); err != nil {
		t.Fatalf("Create: %v", err)
	}
	if got := s.metrics.specCacheMisses.Load(); got != misses+1 {
		t.Fatal("LRU artifact survived past the cap")
	}
}

// TestSetupCacheFailedSetupEvictsNothing: a create whose setup fails must not
// cost a cached setup its place. A one-entry cache fed a good spec, a spec
// whose setup fails (a non-power-of-two IDFT length) and the good spec again
// serves the third create from the first one's setup.
func TestSetupCacheFailedSetupEvictsNothing(t *testing.T) {
	s := New(Config{CacheSpecs: 1})
	defer s.Close()

	good := `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "idft_points": 64}`
	first, err := s.Manager().Create(mustSpec(t, good))
	if err != nil {
		t.Fatalf("Create good: %v", err)
	}
	if _, err := s.Manager().Create(mustSpec(t, `{"model": {"type": "eq22"}, "seed": 1, "blocks": 4, "idft_points": 1000}`)); err == nil {
		t.Fatal("a non-power-of-two IDFT length passed setup")
	}
	again, err := s.Manager().Create(mustSpec(t, good))
	if err != nil {
		t.Fatalf("Create good again: %v", err)
	}
	if again.Stream() != first.Stream() {
		t.Error("the failed setup evicted the cached one")
	}
	if hits, misses := s.metrics.specCacheHits.Load(), s.metrics.specCacheMisses.Load(); hits != 1 || misses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 1/2", hits, misses)
	}
	if size := s.cache.size(); size != 1 {
		t.Errorf("cache holds %d setups, want 1", size)
	}
}

// TestSetupCacheDisabled covers the escape hatch: a negative cap builds every
// session from scratch and shares nothing.
func TestSetupCacheDisabled(t *testing.T) {
	s := New(Config{CacheSpecs: -1})
	defer s.Close()

	a, err := s.Manager().Create(mustSpec(t, testSpec))
	if err != nil {
		t.Fatalf("Create a: %v", err)
	}
	b, err := s.Manager().Create(mustSpec(t, testSpec))
	if err != nil {
		t.Fatalf("Create b: %v", err)
	}
	if a.Stream() == b.Stream() {
		t.Fatal("disabled cache still shared an artifact")
	}
	if hits := s.metrics.specCacheHits.Load(); hits != 0 {
		t.Fatalf("disabled cache recorded %d hits", hits)
	}
}

// TestCacheHitStreamsByteIdentical is the wire-level half of the acceptance
// criterion: the payload of a session served from a cached artifact must be
// byte-identical to one built cold (cache disabled) — caching is invisible
// to clients.
func TestCacheHitStreamsByteIdentical(t *testing.T) {
	cached, tsCached := newTestServer(t, Config{})
	_, tsCold := newTestServer(t, Config{CacheSpecs: -1})

	first := createSession(t, tsCached.URL, testSpec).ID
	second := createSession(t, tsCached.URL, testSpec).ID
	if hits := cached.metrics.specCacheHits.Load(); hits != 1 {
		t.Fatalf("second create recorded %d cache hits, want 1", hits)
	}
	cold := createSession(t, tsCold.URL, testSpec).ID

	_, wantBytes := fetchStream(t, tsCold.URL, cold, "?format=bin&gaussian=1")
	for _, id := range []string{first, second} {
		_, got := fetchStream(t, tsCached.URL, id, "?format=bin&gaussian=1")
		if !bytes.Equal(got, wantBytes) {
			t.Fatalf("session %s (cached server) diverged from the cold-built stream", id)
		}
	}
}
