package core

import (
	"errors"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/doppler"
	"repro/internal/fading"
)

// Tests for the zero-allocation batched generation engine: Into variants must
// reproduce the allocating paths bit-for-bit, batched/parallel runs must be
// independent of the worker count, and the steady-state hot paths must not
// touch the heap.

func newTestSnapshotGenerator(t testing.TB, seed int64) *SnapshotGenerator {
	t.Helper()
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: chanspec.Eq22Covariance(), Seed: seed})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	return g
}

func TestGenerateIntoMatchesGenerate(t *testing.T) {
	g1 := newTestSnapshotGenerator(t, 401)
	g2 := newTestSnapshotGenerator(t, 401)
	gaussian := make([]complex128, g2.N())
	env := make([]float64, g2.N())
	for draw := 0; draw < 10; draw++ {
		want := g1.Generate()
		if err := g2.GenerateInto(gaussian, env); err != nil {
			t.Fatalf("GenerateInto: %v", err)
		}
		for j := range want.Gaussian {
			if gaussian[j] != want.Gaussian[j] || env[j] != want.Envelopes[j] {
				t.Fatalf("draw %d envelope %d: Into (%v,%v) vs Generate (%v,%v)",
					draw, j, gaussian[j], env[j], want.Gaussian[j], want.Envelopes[j])
			}
		}
	}
}

func TestGenerateIntoValidatesLengths(t *testing.T) {
	g := newTestSnapshotGenerator(t, 403)
	if err := g.GenerateInto(make([]complex128, 2), make([]float64, 3)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short gaussian: err = %v", err)
	}
	if err := g.GenerateInto(make([]complex128, 3), make([]float64, 1)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short envelopes: err = %v", err)
	}
}

func TestGenerateIntoDoesNotAllocate(t *testing.T) {
	g := newTestSnapshotGenerator(t, 405)
	gaussian := make([]complex128, g.N())
	env := make([]float64, g.N())
	if n := testing.AllocsPerRun(200, func() {
		if err := g.GenerateInto(gaussian, env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GenerateInto allocates %v per run", n)
	}
}

// TestGenerateBatchIntoWorkerCountInvariance: snapshot i is a pure function
// of the seed and i. 430 single draws equal batches of 300, 1 and 129
// (ragged chunks on both sides of every split) at every worker count, for a
// real coloring, a complex coloring and a Suzuki transform, whose shadowing
// depends on the offset.
func TestGenerateBatchIntoWorkerCountInvariance(t *testing.T) {
	suzuki, err := fading.New(chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}, []float64{1, 1, 1}, 11)
	if err != nil {
		t.Fatalf("fading.New(suzuki): %v", err)
	}
	cases := []struct {
		name     string
		cfg      SnapshotConfig
		realOnly bool
	}{
		{"real", SnapshotConfig{Covariance: exponentialCovariance(5, 0.6)}, true},
		{"complex", SnapshotConfig{Covariance: chanspec.Eq22Covariance()}, false},
		{"suzuki", SnapshotConfig{Covariance: chanspec.Eq22Covariance(), Transform: suzuki}, false},
	}
	const total = 430
	for _, tc := range cases {
		tc.cfg.Seed = 407
		mk := func() *SnapshotGenerator {
			g, err := NewSnapshotGenerator(tc.cfg)
			if err != nil {
				t.Fatalf("%s: NewSnapshotGenerator: %v", tc.name, err)
			}
			return g
		}
		single := mk()
		realOnly := true
		for i := 0; i < single.N(); i++ {
			for _, v := range single.coloring.RowView(i) {
				realOnly = realOnly && imag(v) == 0
			}
		}
		if realOnly != tc.realOnly {
			t.Fatalf("%s: coloring real = %v, want %v", tc.name, realOnly, tc.realOnly)
		}
		want := make([]Snapshot, total)
		for i := range want {
			want[i] = single.Generate()
		}
		for _, workers := range []int{1, 2, 4, 7} {
			g := mk()
			var got []Snapshot
			for _, size := range []int{300, 1, 129} {
				dst := make([]Snapshot, size)
				if err := g.GenerateBatchInto(dst, workers); err != nil {
					t.Fatalf("%s: GenerateBatchInto(workers=%d): %v", tc.name, workers, err)
				}
				got = append(got, dst...)
			}
			for i := range want {
				for j := range want[i].Gaussian {
					if got[i].Gaussian[j] != want[i].Gaussian[j] || got[i].Envelopes[j] != want[i].Envelopes[j] {
						t.Fatalf("%s: workers=%d snapshot %d envelope %d differs from single draws", tc.name, workers, i, j)
					}
				}
			}
		}
	}
}

func TestGenerateBatchIntoDoesNotAllocate(t *testing.T) {
	g := newTestSnapshotGenerator(t, 433)
	dst := make([]Snapshot, 1024)
	for i := range dst {
		dst[i].Gaussian = make([]complex128, g.N())
		dst[i].Envelopes = make([]float64, g.N())
	}
	for _, workers := range []int{0, 1} {
		if n := testing.AllocsPerRun(10, func() {
			if err := g.GenerateBatchInto(dst, workers); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("GenerateBatchInto(workers=%d) allocates %v per run", workers, n)
		}
	}
}

func TestGenerateBatchIntoReusesStorage(t *testing.T) {
	g := newTestSnapshotGenerator(t, 409)
	dst := make([]Snapshot, 10)
	for i := range dst {
		dst[i].Gaussian = make([]complex128, g.N())
		dst[i].Envelopes = make([]float64, g.N())
	}
	before := make([]*complex128, len(dst))
	for i := range dst {
		before[i] = &dst[i].Gaussian[0]
	}
	if err := g.GenerateBatchInto(dst, 1); err != nil {
		t.Fatalf("GenerateBatchInto: %v", err)
	}
	for i := range dst {
		if &dst[i].Gaussian[0] != before[i] {
			t.Errorf("snapshot %d storage was reallocated despite correct shape", i)
		}
	}
	if err := g.GenerateBatchInto(nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty batch: err = %v", err)
	}
}

func newTestRealTimeGenerator(t testing.TB, seed int64, m int) *RealTimeGenerator {
	t.Helper()
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: chanspec.Eq22Covariance(),
		Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
		Seed:       seed,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	return g
}

func blocksEqual(t *testing.T, label string, a, b *Block) {
	t.Helper()
	for j := range a.Gaussian {
		for l := range a.Gaussian[j] {
			if a.Gaussian[j][l] != b.Gaussian[j][l] || a.Envelopes[j][l] != b.Envelopes[j][l] {
				t.Fatalf("%s: blocks differ at (%d,%d)", label, j, l)
			}
		}
	}
}

// TestGenerateBlockIntoMatchesGenerateBlock: a block filled into reused,
// pre-shaped storage equals the block filled into a fresh Block.
func TestGenerateBlockIntoMatchesGenerateBlock(t *testing.T) {
	g := newTestRealTimeGenerator(t, 411, 512)
	fresh := g.NewBlockScratch()
	reused := g.NewBlockScratch()
	into := NewBlock(g.N(), g.BlockLength())
	for i := uint64(0); i < 3; i++ {
		want := &Block{}
		if err := g.GenerateBlockAt(i, want, fresh); err != nil {
			t.Fatalf("GenerateBlockAt(fresh): %v", err)
		}
		if err := g.GenerateBlockAt(i, into, reused); err != nil {
			t.Fatalf("GenerateBlockAt(reused): %v", err)
		}
		blocksEqual(t, "block", want, into)
	}
	if err := g.GenerateBlockAt(0, nil, reused); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil block: err = %v", err)
	}
	if err := g.GenerateBlockAt(0, into, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil scratch: err = %v", err)
	}
}

func TestGenerateBlockIntoReshapesWrongBlocks(t *testing.T) {
	g := newTestRealTimeGenerator(t, 413, 512)
	s := g.NewBlockScratch()
	b := &Block{} // empty: must be shaped in place
	if err := g.GenerateBlockAt(0, b, s); err != nil {
		t.Fatalf("GenerateBlockAt: %v", err)
	}
	if len(b.Gaussian) != 3 || len(b.Gaussian[0]) != 512 {
		t.Fatalf("block not reshaped: %dx%d", len(b.Gaussian), len(b.Gaussian[0]))
	}
}

// TestGenerateBlockIntoDoesNotAllocate walks consecutive blocks into storage
// the first call shaped, as a stream cursor does.
func TestGenerateBlockIntoDoesNotAllocate(t *testing.T) {
	g := newTestRealTimeGenerator(t, 415, 512)
	s := g.NewBlockScratch()
	b := &Block{}
	var i uint64
	if n := testing.AllocsPerRun(10, func() {
		if err := g.GenerateBlockAt(i, b, s); err != nil {
			t.Fatal(err)
		}
		i++
	}); n != 0 {
		t.Errorf("GenerateBlockAt allocates %v per run", n)
	}
}

func TestGenerateBlocksIntoWorkerCountInvariance(t *testing.T) {
	const count = 6
	g := newTestRealTimeGenerator(t, 417, 512)
	want := blocksAt(t, g, 0, count, 1)
	for _, workers := range []int{2, 4} {
		got := blocksAt(t, g, 0, count, workers)
		for i := range want {
			blocksEqual(t, "parallel vs sequential", want[i], got[i])
		}
	}
}

func TestGenerateBlocksIntoValidation(t *testing.T) {
	g := newTestRealTimeGenerator(t, 419, 512)
	if err := g.GenerateBlocksAt(0, nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty dst: err = %v", err)
	}
	if err := g.GenerateBlocksAt(0, make([]*Block, 2), 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil entries: err = %v", err)
	}
}
