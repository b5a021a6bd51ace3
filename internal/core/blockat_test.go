package core

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/doppler"
	"repro/internal/fading"
)

func newBlockAtGenerator(t testing.TB, m int, seed int64, tr fading.Transform) *RealTimeGenerator {
	t.Helper()
	k := chanspec.Eq22Covariance()
	gen, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: k,
		Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
		Seed:       seed,
		Transform:  tr,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	return gen
}

// TestGenerateBlockAtMatchesBlocksInto pins the one-sequence contract: block
// i is the same from a fill by any number of goroutines (each with its own
// scratch), for any split of the range into calls and any interleaving with
// single GenerateBlockAt calls, and GenerateBlockAt reproduces it in
// isolation.
func TestGenerateBlockAtMatchesBlocksInto(t *testing.T) {
	const blocks = 7
	blocksInto := func(workers int) func(*testing.T, *RealTimeGenerator, []*Block) {
		return func(t *testing.T, g *RealTimeGenerator, dst []*Block) {
			// Two calls: the second resumes where the first stopped.
			copy(dst, blocksAt(t, g, 0, 3, workers))
			copy(dst[3:], blocksAt(t, g, 3, blocks-3, workers))
		}
	}
	sources := []struct {
		name string
		fill func(*testing.T, *RealTimeGenerator, []*Block)
	}{
		{"GenerateBlocksInto/workers=1", blocksInto(1)},
		{"GenerateBlocksInto/workers=3", blocksInto(3)},
		{"interleaved", func(t *testing.T, g *RealTimeGenerator, dst []*Block) {
			s := g.NewBlockScratch()
			if err := g.GenerateBlockAt(0, dst[0], s); err != nil {
				t.Fatalf("GenerateBlockAt: %v", err)
			}
			copy(dst[1:], blocksAt(t, g, 1, 3, 2))
			if err := g.GenerateBlockAt(4, dst[4], s); err != nil {
				t.Fatalf("GenerateBlockAt: %v", err)
			}
			copy(dst[5:], blocksAt(t, g, 5, blocks-5, 1))
		}},
	}
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			gen := newBlockAtGenerator(t, 128, 42, nil)
			dst := make([]*Block, blocks)
			for i := range dst {
				dst[i] = NewBlock(gen.N(), gen.BlockLength())
			}
			src.fill(t, gen, dst)

			random := newBlockAtGenerator(t, 128, 42, nil)
			scratch := random.NewBlockScratch()
			got := NewBlock(random.N(), random.BlockLength())
			// Access out of order on purpose.
			for _, i := range []int{6, 0, 3, 5, 1, 4, 2} {
				if err := random.GenerateBlockAt(uint64(i), got, scratch); err != nil {
					t.Fatalf("GenerateBlockAt(%d): %v", i, err)
				}
				if n := blockMismatchCount(dst[i], got); n != 0 {
					t.Fatalf("block %d: %d mismatched values between GenerateBlockAt and %s", i, n, src.name)
				}
			}
		})
	}
}

// TestGenerateBlockAtConcurrent drives one generator from many goroutines,
// each with a private scratch and destination; run under -race this proves
// the random-access path needs no locking.
func TestGenerateBlockAtConcurrent(t *testing.T) {
	const blocks = 12
	gen := newBlockAtGenerator(t, 64, 7, nil)
	want := blocksAt(t, gen, 0, blocks, 1)

	shared := newBlockAtGenerator(t, 64, 7, nil)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	mismatches := make([]int, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scratch := shared.NewBlockScratch()
			b := NewBlock(shared.N(), shared.BlockLength())
			for i := w; i < blocks; i += 4 {
				if err := shared.GenerateBlockAt(uint64(i), b, scratch); err != nil {
					errs[w] = err
					return
				}
				mismatches[w] += blockMismatchCount(want[i], b)
			}
		}(w)
	}
	wg.Wait()
	for w := range errs {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		if mismatches[w] != 0 {
			t.Fatalf("worker %d: %d mismatched values vs batched reference", w, mismatches[w])
		}
	}
}

// TestGenerateBlockAtNoAllocs locks in the steady-state allocation behavior
// the service generation path depends on, with and without a fading
// transform.
func TestGenerateBlockAtNoAllocs(t *testing.T) {
	nakagami, err := fading.New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}, []float64{1, 1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tr   fading.Transform
	}{
		{chanspec.FadingRayleigh, nil},
		{chanspec.FadingNakagamiM, nakagami},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gen := newBlockAtGenerator(t, 256, 3, tc.tr)
			scratch := gen.NewBlockScratch()
			b := NewBlock(gen.N(), gen.BlockLength())
			var i uint64
			allocs := testing.AllocsPerRun(50, func() {
				if err := gen.GenerateBlockAt(i%16, b, scratch); err != nil {
					t.Fatalf("GenerateBlockAt: %v", err)
				}
				i++
			})
			if allocs != 0 {
				t.Fatalf("GenerateBlockAt allocated %.1f times per block, want 0", allocs)
			}
		})
	}
}

// blocksAt returns blocks first..first+count-1 of g, filled by workers
// goroutines, each with its own scratch and taking every workers-th block.
func blocksAt(t testing.TB, g *RealTimeGenerator, first uint64, count, workers int) []*Block {
	t.Helper()
	dst := make([]*Block, count)
	workers = max(1, min(workers, count))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := g.NewBlockScratch()
			for i := w; i < count && errs[w] == nil; i += workers {
				dst[i] = NewBlock(g.N(), g.BlockLength())
				errs[w] = g.GenerateBlockAt(first+uint64(i), dst[i], s)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatalf("blocksAt(%d, %d blocks, %d workers): %v", first, count, workers, err)
	}
	return dst
}

// blockMismatchCount counts value positions where two blocks differ bitwise.
func blockMismatchCount(a, b *Block) int {
	n := 0
	for j := range a.Gaussian {
		for l := range a.Gaussian[j] {
			if a.Gaussian[j][l] != b.Gaussian[j][l] || a.Envelopes[j][l] != b.Envelopes[j][l] {
				n++
			}
		}
	}
	return n
}
