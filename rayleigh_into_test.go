package rayleigh

import (
	"errors"
	"math"
	"testing"
)

// Tests for the public streaming APIs: SnapshotsInto/BlockInto/BlocksInto must
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

func TestSnapshotsIntoWorkerCountInvariance(t *testing.T) {
	const count = 200 // several chunks plus a ragged tail
	var want []Snapshot
	for _, parallel := range []int{0, 1, 3, 8} {
		g := newIntoGenerator(t, parallel)
		dst := make([]Snapshot, count)
		if err := g.SnapshotsInto(dst); err != nil {
			t.Fatalf("SnapshotsInto(Parallel=%d): %v", parallel, err)
		}
		if want == nil {
			want = dst
			continue
		}
		for i := range dst {
			for j := range dst[i].Gaussian {
				if dst[i].Gaussian[j] != want[i].Gaussian[j] || dst[i].Envelopes[j] != want[i].Envelopes[j] {
					t.Fatalf("Parallel=%d snapshot %d envelope %d differs from sequential run", parallel, i, j)
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
	// Steady state allocates only the per-chunk stream derivations: a handful
	// of allocations per 64-snapshot chunk, far below one per snapshot.
	if perSnapshot := perRun / count; perSnapshot > 0.5 {
		t.Errorf("SnapshotsInto allocates %.2f per snapshot (%.0f per %d-snapshot run)", perSnapshot, perRun, count)
	}
}

func newIntoRealTime(t *testing.T, m, parallel int) *RealTime {
	t.Helper()
	r, err := NewRealTime(RealTimeConfig{
		Covariance:        exponentialCovarianceRows(4, 0.5),
		IDFTPoints:        m,
		NormalizedDoppler: 0.05,
		Seed:              503,
		Parallel:          parallel,
	})
	if err != nil {
		t.Fatalf("NewRealTime: %v", err)
	}
	return r
}

func TestBlockIntoMatchesBlock(t *testing.T) {
	r1 := newIntoRealTime(t, 512, 0)
	r2 := newIntoRealTime(t, 512, 0)
	var into Block
	for i := 0; i < 3; i++ {
		want := r1.Block()
		if err := r2.BlockInto(&into); err != nil {
			t.Fatalf("BlockInto: %v", err)
		}
		for j := range want.Gaussian {
			for l := range want.Gaussian[j] {
				if into.Gaussian[j][l] != want.Gaussian[j][l] || into.Envelopes[j][l] != want.Envelopes[j][l] {
					t.Fatalf("block %d: BlockInto differs from Block at (%d,%d)", i, j, l)
				}
			}
		}
	}
	if err := r2.BlockInto(nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("nil block: err = %v", err)
	}
}

func TestBlockIntoDoesNotAllocate(t *testing.T) {
	r := newIntoRealTime(t, 512, 0)
	var b Block
	if err := r.BlockInto(&b); err != nil { // shape the storage once
		t.Fatalf("BlockInto: %v", err)
	}
	if n := testing.AllocsPerRun(10, func() {
		if err := r.BlockInto(&b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BlockInto allocates %v per run", n)
	}
}

func TestBlocksIntoDoesNotAllocate(t *testing.T) {
	for _, parallel := range []int{0, 1} {
		r := newIntoRealTime(t, 512, parallel)
		dst := make([]*Block, 8)
		if err := r.BlocksInto(dst); err != nil { // shape the storage once
			t.Fatalf("BlocksInto: %v", err)
		}
		if n := testing.AllocsPerRun(10, func() {
			if err := r.BlocksInto(dst); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("Parallel=%d: BlocksInto allocates %v per run", parallel, n)
		}
	}
}

func TestBlocksIntoWorkerCountInvariance(t *testing.T) {
	const count = 6
	var want []*Block
	for _, parallel := range []int{0, 2, 4} {
		r := newIntoRealTime(t, 512, parallel)
		dst := make([]*Block, count) // nil entries: BlocksInto allocates them
		if err := r.BlocksInto(dst); err != nil {
			t.Fatalf("BlocksInto(Parallel=%d): %v", parallel, err)
		}
		if want == nil {
			want = dst
			continue
		}
		for i := range dst {
			for j := range dst[i].Gaussian {
				for l := range dst[i].Gaussian[j] {
					if dst[i].Gaussian[j][l] != want[i].Gaussian[j][l] ||
						dst[i].Envelopes[j][l] != want[i].Envelopes[j][l] {
						t.Fatalf("Parallel=%d block %d differs from sequential run at (%d,%d)", parallel, i, j, l)
					}
				}
			}
		}
	}
	r := newIntoRealTime(t, 512, 2)
	if err := r.BlocksInto(nil); !errors.Is(err, ErrInvalidConfig) {
		t.Errorf("empty destination: err = %v", err)
	}
}
