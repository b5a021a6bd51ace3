package core

import (
	"errors"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/doppler"
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

// TestGenerateBatchIntoWorkerCountInvariance pins the chunk streams: chunk c
// of a batch draws from the (c+1)-th Split of the batch root, whether the
// chunk's RNG is a Split child or a reused RNG reseeded with SplitSeed, at
// every worker count, and a second batch continues the split sequence.
func TestGenerateBatchIntoWorkerCountInvariance(t *testing.T) {
	sizes := []int{300, 130} // several chunks with ragged tails, in two calls
	ref := newTestSnapshotGenerator(t, 407)
	p := newSnapPanels(ref.N())
	var want [][]Snapshot
	for _, size := range sizes {
		dst := make([]Snapshot, size)
		for c := 0; c*batchChunkSize < size; c++ {
			p.rng = ref.batchRoot.Split()
			ref.fillChunk(dst, c, 0, p)
		}
		want = append(want, dst)
	}
	for _, workers := range []int{1, 2, 4, 7} {
		g := newTestSnapshotGenerator(t, 407)
		for b, size := range sizes {
			dst := make([]Snapshot, size)
			if err := g.GenerateBatchInto(dst, workers); err != nil {
				t.Fatalf("GenerateBatchInto(workers=%d): %v", workers, err)
			}
			for i := range dst {
				for j := range dst[i].Gaussian {
					if dst[i].Gaussian[j] != want[b][i].Gaussian[j] || dst[i].Envelopes[j] != want[b][i].Envelopes[j] {
						t.Fatalf("workers=%d batch %d snapshot %d envelope %d differs from the Split reference", workers, b, i, j)
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

func TestGenerateBlockIntoMatchesGenerateBlock(t *testing.T) {
	g1 := newTestRealTimeGenerator(t, 411, 512)
	g2 := newTestRealTimeGenerator(t, 411, 512)
	into := NewBlock(g2.N(), g2.BlockLength())
	for i := 0; i < 3; i++ {
		want := g1.GenerateBlock()
		if err := g2.GenerateBlockInto(into); err != nil {
			t.Fatalf("GenerateBlockInto: %v", err)
		}
		blocksEqual(t, "block", want, into)
	}
	if err := g2.GenerateBlockInto(nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil block: err = %v", err)
	}
}

func TestGenerateBlockIntoReshapesWrongBlocks(t *testing.T) {
	g := newTestRealTimeGenerator(t, 413, 512)
	b := &Block{} // empty: must be shaped in place
	if err := g.GenerateBlockInto(b); err != nil {
		t.Fatalf("GenerateBlockInto: %v", err)
	}
	if len(b.Gaussian) != 3 || len(b.Gaussian[0]) != 512 {
		t.Fatalf("block not reshaped: %dx%d", len(b.Gaussian), len(b.Gaussian[0]))
	}
}

func TestGenerateBlockIntoDoesNotAllocate(t *testing.T) {
	g := newTestRealTimeGenerator(t, 415, 512)
	b := NewBlock(g.N(), g.BlockLength())
	if n := testing.AllocsPerRun(10, func() {
		if err := g.GenerateBlockInto(b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GenerateBlockInto allocates %v per run", n)
	}
}

func TestGenerateBlocksIntoWorkerCountInvariance(t *testing.T) {
	const count = 6
	runs := make([][]*Block, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		g := newTestRealTimeGenerator(t, 417, 512)
		dst := make([]*Block, count)
		for i := range dst {
			dst[i] = NewBlock(g.N(), g.BlockLength())
		}
		if err := g.GenerateBlocksInto(dst, workers); err != nil {
			t.Fatalf("GenerateBlocksInto(workers=%d): %v", workers, err)
		}
		runs = append(runs, dst)
	}
	for r := 1; r < len(runs); r++ {
		for i := range runs[0] {
			blocksEqual(t, "parallel vs sequential", runs[0][i], runs[r][i])
		}
	}
}

func TestGenerateBlocksIntoValidation(t *testing.T) {
	g := newTestRealTimeGenerator(t, 419, 512)
	if err := g.GenerateBlocksInto(nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty dst: err = %v", err)
	}
	if err := g.GenerateBlocksInto(make([]*Block, 2), 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil entries: err = %v", err)
	}
}

func TestGenerateBlocksIntoBluesteinLength(t *testing.T) {
	// Non-power-of-two M exercises the per-worker Doppler generators (the
	// shared plan scratch would race otherwise).
	const count = 4
	g1 := newTestRealTimeGenerator(t, 421, 600)
	g2 := newTestRealTimeGenerator(t, 421, 600)
	seq := make([]*Block, count)
	par := make([]*Block, count)
	for i := range seq {
		seq[i] = NewBlock(g1.N(), g1.BlockLength())
		par[i] = NewBlock(g2.N(), g2.BlockLength())
	}
	if err := g1.GenerateBlocksInto(seq, 1); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if err := g2.GenerateBlocksInto(par, 3); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range seq {
		blocksEqual(t, "bluestein parallel", seq[i], par[i])
	}
}
