package rayleigh

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
)

// Tests for the public streaming APIs: SnapshotsInto and Stream cursors must
// be deterministic across worker counts, reuse caller storage, and keep the
// steady-state hot path off the heap.

// exponentialCovarianceRows builds the n×n exponential correlation matrix
// K[i][j] = rho^|i-j| — a standard positive definite test target that scales
// to any N.
func exponentialCovarianceRows(n int, rho float64) [][]complex128 {
	rows := make([][]complex128, n)
	for i := range rows {
		rows[i] = make([]complex128, n)
		for j := range rows[i] {
			d := i - j
			if d < 0 {
				d = -d
			}
			rows[i][j] = complex(math.Pow(rho, float64(d)), 0)
		}
	}
	return rows
}

func newIntoGenerator(t *testing.T, parallel int) *Generator {
	t.Helper()
	g, err := New(Config{Covariance: exponentialCovarianceRows(5, 0.6), Seed: 501, Parallel: parallel})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g
}

// TestSnapshotsIntoWorkerCountInvariance: a seeded Generator draws one
// snapshot sequence. For every method, SnapshotsInto over consecutive splits
// of 1, 63, 64, 65 and 200 snapshots (calls that start and end on both sides
// of the 64-snapshot chunk edges), at Parallel 1 and 4, equals a loop of
// Snapshot calls.
func TestSnapshotsIntoWorkerCountInvariance(t *testing.T) {
	splits := []int{1, 63, 64, 65, 200}
	total := 0
	for _, n := range splits {
		total += n
	}
	for _, m := range Methods() {
		cfg := Config{Covariance: exponentialCovarianceRows(5, 0.6), Seed: 501, Method: m.Name}
		if m.Name == MethodErtelReed {
			cfg.Covariance = exponentialCovarianceRows(2, 0.6) // its two-branch construction
		}
		ref, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%s): %v", m.Name, err)
		}
		want := make([]Snapshot, total)
		for i := range want {
			want[i] = ref.Snapshot()
		}
		for _, parallel := range []int{1, 4} {
			cfg.Parallel = parallel
			g, err := New(cfg)
			if err != nil {
				t.Fatalf("New(%s, Parallel=%d): %v", m.Name, parallel, err)
			}
			i := 0
			for _, n := range splits {
				dst := make([]Snapshot, n)
				if err := g.SnapshotsInto(dst); err != nil {
					t.Fatalf("%s SnapshotsInto(Parallel=%d): %v", m.Name, parallel, err)
				}
				for _, s := range dst {
					for j := range s.Gaussian {
						if s.Gaussian[j] != want[i].Gaussian[j] || s.Envelopes[j] != want[i].Envelopes[j] {
							t.Fatalf("%s Parallel=%d snapshot %d envelope %d differs from the Snapshot loop", m.Name, parallel, i, j)
						}
					}
					i++
				}
			}
		}
	}
}

func TestSnapshotsIntoReusesStorage(t *testing.T) {
	g := newIntoGenerator(t, 1)
	dst := make([]Snapshot, 16)
	for i := range dst {
		dst[i].Gaussian = make([]complex128, g.N())
		dst[i].Envelopes = make([]float64, g.N())
	}
	before := make([]*complex128, len(dst))
	for i := range dst {
		before[i] = &dst[i].Gaussian[0]
	}
	if err := g.SnapshotsInto(dst); err != nil {
		t.Fatalf("SnapshotsInto: %v", err)
	}
	for i := range dst {
		if &dst[i].Gaussian[0] != before[i] {
			t.Errorf("snapshot %d storage was reallocated despite correct shape", i)
		}
	}
	if err := g.SnapshotsInto(nil); err == nil {
		t.Error("empty destination: want error, got nil")
	}
}

func TestSnapshotsIntoAmortizedAllocations(t *testing.T) {
	g := newIntoGenerator(t, 1)
	const count = 256
	dst := make([]Snapshot, count)
	if err := g.SnapshotsInto(dst); err != nil { // shape the storage once
		t.Fatalf("SnapshotsInto: %v", err)
	}
	perRun := testing.AllocsPerRun(20, func() {
		if err := g.SnapshotsInto(dst); err != nil {
			t.Fatal(err)
		}
	})
	// Steady state reuses the caller's storage and the generator's chunk
	// panels: far below one allocation per snapshot.
	if perSnapshot := perRun / count; perSnapshot > 0.5 {
		t.Errorf("SnapshotsInto allocates %.2f per snapshot (%.0f per %d-snapshot run)", perSnapshot, perRun, count)
	}
}

// TestSnapshotsIntoParallelReusesWorkerPanels bounds what a warmed parallel
// SnapshotsInto call allocates. The generator keeps its workers' N×64 chunk
// panels across calls, so a call at Parallel 4 costs its goroutine starts,
// about 1 KiB, instead of fresh panels for every worker (over 100 KiB at
// N = 16).
func TestSnapshotsIntoParallelReusesWorkerPanels(t *testing.T) {
	const n, count, calls = 16, 1024, 50
	g, err := New(Config{Covariance: exponentialCovarianceRows(n, 0.7), Seed: 505, Parallel: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dst := make([]Snapshot, count)
	if err := g.SnapshotsInto(dst); err != nil { // shape the storage, build the panels
		t.Fatalf("SnapshotsInto: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		if err := g.SnapshotsInto(dst); err != nil {
			t.Fatalf("SnapshotsInto: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= 8<<10 {
		t.Errorf("warmed SnapshotsInto at Parallel 4 allocates %d bytes per call, want < 8 KiB", perCall)
	}
}

func newIntoStream(t *testing.T, m int) *Stream {
	t.Helper()
	s, err := NewStream(RealTimeConfig{
		Covariance:        exponentialCovarianceRows(4, 0.5),
		IDFTPoints:        m,
		NormalizedDoppler: 0.05,
		Seed:              503,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	return s
}

func newIntoCursor(t *testing.T, s *Stream) *Cursor {
	t.Helper()
	cur, err := s.NewCursor()
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	return cur
}

// TestBlockIntoMatchesBlock: reading into one reused Block gives the values
// reading into a fresh Block per call gives.
func TestBlockIntoMatchesBlock(t *testing.T) {
	s := newIntoStream(t, 512)
	fresh, reused := newIntoCursor(t, s), newIntoCursor(t, s)
	var into Block
	for i := 0; i < 3; i++ {
		want := &Block{}
		if err := fresh.Next(want); err != nil {
			t.Fatalf("Next(fresh): %v", err)
		}
		if err := reused.Next(&into); err != nil {
			t.Fatalf("Next(reused): %v", err)
		}
		assertBlocksEqual(t, i, want, &into)
	}
	if err := reused.Next(nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil block: err = %v", err)
	}
}

// TestCursorNextDoesNotAllocate pins the public hot path's contract: once a
// Block is shaped, reading block after block into it allocates nothing.
func TestCursorNextDoesNotAllocate(t *testing.T) {
	cur := newIntoCursor(t, newIntoStream(t, 512))
	var b Block
	if err := cur.Next(&b); err != nil { // shape the storage once
		t.Fatalf("Next: %v", err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := cur.Next(&b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Cursor.Next allocates %v per run", n)
	}
}

// TestBlocksIntoWorkerCountInvariance fills a range of blocks the way a
// parallel host does: each goroutine owns a cursor, seeks to the start of its
// contiguous share and reads on with Next. Every worker count gives the
// blocks one cursor reads from block 0.
func TestBlocksIntoWorkerCountInvariance(t *testing.T) {
	const count = 6
	s := newIntoStream(t, 512)
	var want []Block
	for _, workers := range []int{1, 2, 4} {
		got := make([]Block, count)
		share := (count + workers - 1) / workers
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cur, err := s.NewCursor()
				if err != nil {
					errs[w] = err
					return
				}
				cur.Seek(uint64(w * share))
				for i := w * share; i < min((w+1)*share, count); i++ {
					if err := cur.Next(&got[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("workers=%d, goroutine %d: %v", workers, w, err)
			}
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			assertBlocksEqual(t, i, &want[i], &got[i])
		}
	}
}
