package rayleigh

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/chanspec"
)

var streamTestCovariance = matrixToRows(3, chanspec.Eq22Covariance().At)

func streamTestConfig(seed int64, parallel int) RealTimeConfig {
	return RealTimeConfig{
		Covariance:        streamTestCovariance,
		IDFTPoints:        128,
		NormalizedDoppler: 0.05,
		Seed:              seed,
		Parallel:          parallel,
	}
}

// TestStreamMatchesBlocksInto pins the one real-time block sequence: block k
// is the same, bit for bit, from RealTime.Block, RealTime.BlockInto,
// RealTime.BlocksInto (Parallel 1 and 4, uneven batches), Cursor.Next and
// Cursor.BlockAt in reverse order. The Suzuki transform depends on the
// sample offset and the nonstationary trajectory changes segment at block 4,
// inside the second batch.
func TestStreamMatchesBlocksInto(t *testing.T) {
	const blocks = 8
	configs := map[string]RealTimeConfig{
		FadingRayleigh: streamTestConfig(11, 0),
		FadingSuzuki: {
			Covariance:        streamTestCovariance,
			IDFTPoints:        128,
			NormalizedDoppler: 0.05,
			Seed:              13,
			Fading:            FadingSuzuki,
			FadingParams:      &FadingParams{ShadowSigmaDB: 4, ShadowCoherence: 48},
		},
		FadingNonstationaryDoppler: {
			Covariance: streamTestCovariance,
			IDFTPoints: 128,
			Seed:       17,
			Fading:     FadingNonstationaryDoppler,
			FadingParams: &FadingParams{Segments: []DopplerSegment{
				{Blocks: 4, NormalizedDoppler: 0.02},
				{Blocks: 4, NormalizedDoppler: 0.1},
			}},
		},
	}
	newRealTime := func(t *testing.T, cfg RealTimeConfig, parallel int) *RealTime {
		t.Helper()
		cfg.Parallel = parallel
		rt, err := NewRealTime(cfg)
		if err != nil {
			t.Fatalf("NewRealTime: %v", err)
		}
		return rt
	}
	for name, cfg := range configs {
		t.Run(name, func(t *testing.T) {
			s, err := NewStream(cfg)
			if err != nil {
				t.Fatalf("NewStream: %v", err)
			}
			cur, err := s.NewCursor()
			if err != nil {
				t.Fatalf("NewCursor: %v", err)
			}
			want := make([]*Block, blocks)
			for i := range want {
				if pos := cur.Position(); pos != uint64(i) {
					t.Fatalf("cursor position %d before block %d", pos, i)
				}
				want[i] = &Block{}
				if err := cur.Next(want[i]); err != nil {
					t.Fatalf("Next(%d): %v", i, err)
				}
			}

			rt := newRealTime(t, cfg, 0)
			for i := range want {
				got := rt.Block()
				assertBlocksEqual(t, i, want[i], &got)
			}
			rt = newRealTime(t, cfg, 0)
			var got Block
			for i := range want {
				if err := rt.BlockInto(&got); err != nil {
					t.Fatalf("BlockInto(%d): %v", i, err)
				}
				assertBlocksEqual(t, i, want[i], &got)
			}
			for _, parallel := range []int{1, 4} {
				rt := newRealTime(t, cfg, parallel)
				dst := make([]*Block, blocks)
				if err := rt.BlocksInto(dst[:3]); err != nil {
					t.Fatalf("BlocksInto(Parallel=%d, first): %v", parallel, err)
				}
				if err := rt.BlocksInto(dst[3:]); err != nil {
					t.Fatalf("BlocksInto(Parallel=%d, second): %v", parallel, err)
				}
				for i := range want {
					assertBlocksEqual(t, i, want[i], dst[i])
				}
			}
			back, err := s.NewCursor()
			if err != nil {
				t.Fatalf("NewCursor: %v", err)
			}
			for i := blocks - 1; i >= 0; i-- {
				if err := back.BlockAt(uint64(i), &got); err != nil {
					t.Fatalf("BlockAt(%d): %v", i, err)
				}
				assertBlocksEqual(t, i, want[i], &got)
			}
		})
	}
}

// TestStreamResume checks the ?from=k contract at the API level: seeking to
// k and reading matches blocks k.. of a from-0 pass.
func TestStreamResume(t *testing.T) {
	const blocks = 6
	s, err := NewStream(streamTestConfig(23, 0))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	cur, err := s.NewCursor()
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	full := make([]*Block, blocks)
	for i := range full {
		full[i] = &Block{}
		if err := cur.Next(full[i]); err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
	}

	resumed, err := s.NewCursor()
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	resumed.Seek(3)
	var got Block
	for i := 3; i < blocks; i++ {
		if err := resumed.Next(&got); err != nil {
			t.Fatalf("resumed Next(%d): %v", i, err)
		}
		assertBlocksEqual(t, i, full[i], &got)
	}
}

// TestStreamConcurrentCursors drives one shared Stream from several
// goroutines, each with a private Cursor; run under -race (CI does) this
// proves the server-facing path is safe without locking, while the value
// comparison proves every goroutine sees the same deterministic sequence.
func TestStreamConcurrentCursors(t *testing.T) {
	const blocks = 16
	s, err := NewStream(streamTestConfig(29, 0))
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	ref, err := s.NewCursor()
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	want := make([]*Block, blocks)
	for i := range want {
		want[i] = &Block{}
		if err := ref.Next(want[i]); err != nil {
			t.Fatalf("Next(%d): %v", i, err)
		}
	}

	const goroutines = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cur, err := s.NewCursor()
			if err != nil {
				errs[g] = err
				return
			}
			var got Block
			// Stride the blocks so every goroutine seeks as well as reads.
			for i := g; i < blocks; i += goroutines {
				if err := cur.BlockAt(uint64(i), &got); err != nil {
					errs[g] = err
					return
				}
				for j := range got.Envelopes {
					for l := range got.Envelopes[j] {
						if got.Envelopes[j][l] != want[i].Envelopes[j][l] ||
							got.Gaussian[j][l] != want[i].Gaussian[j][l] {
							errs[g] = errors.New("concurrent cursor diverged from reference sequence")
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestNewFromPowersParallelIdentity is the regression test for the dropped
// worker count: the powers-based constructor must honor Parallel, and its
// batched output must stay bit-identical across worker counts.
func TestNewFromPowersParallelIdentity(t *testing.T) {
	correlation := [][]complex128{
		{1, 0.6, 0.2},
		{0.6, 1, 0.5},
		{0.2, 0.5, 1},
	}
	variances := []float64{1.5, 0.8, 2.0}
	build := func(parallel int) *Generator {
		g, err := NewFromPowers(PowersConfig{
			Correlation:       correlation,
			EnvelopeVariances: variances,
			Seed:              77,
			Parallel:          parallel,
		})
		if err != nil {
			t.Fatalf("NewFromPowers(parallel=%d): %v", parallel, err)
		}
		return g
	}
	parallel := build(4)
	if parallel.workers != 4 {
		t.Fatalf("NewFromPowers(Parallel: 4) set workers = %d, want 4", parallel.workers)
	}
	sequential := build(1)

	const draws = 300
	run := func(g *Generator) []Snapshot {
		dst := make([]Snapshot, draws)
		if err := g.SnapshotsInto(dst); err != nil {
			t.Fatalf("SnapshotsInto: %v", err)
		}
		return dst
	}
	a, b := run(sequential), run(parallel)
	for i := range a {
		for j := range a[i].Gaussian {
			if a[i].Gaussian[j] != b[i].Gaussian[j] || a[i].Envelopes[j] != b[i].Envelopes[j] {
				t.Fatalf("snapshot %d envelope %d: sequential and 4-worker powers paths differ", i, j)
			}
		}
	}
}

// TestBlocksIntoRejectsAliasedDestinations is the regression test for the
// silent-clobber bug: duplicate *Block pointers in dst must fail loudly.
func TestBlocksIntoRejectsAliasedDestinations(t *testing.T) {
	rt, err := NewRealTime(streamTestConfig(5, 0))
	if err != nil {
		t.Fatalf("NewRealTime: %v", err)
	}
	shared := &Block{}
	err = rt.BlocksInto([]*Block{shared, nil, shared})
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("BlocksInto with aliased destinations: err = %v, want ErrInvalidConfig", err)
	}

	// Distinct (including nil) destinations still work.
	dst := []*Block{{}, nil, {}}
	if err := rt.BlocksInto(dst); err != nil {
		t.Fatalf("BlocksInto with distinct destinations: %v", err)
	}
	for i, b := range dst {
		if b == nil || len(b.Envelopes) != rt.N() {
			t.Fatalf("block %d not filled", i)
		}
	}
}

// assertBlocksEqual fails the test on the first bitwise difference.
func assertBlocksEqual(t *testing.T, i int, want, got *Block) {
	t.Helper()
	if len(want.Gaussian) != len(got.Gaussian) {
		t.Fatalf("block %d: %d rows, want %d", i, len(got.Gaussian), len(want.Gaussian))
	}
	for j := range want.Gaussian {
		for l := range want.Gaussian[j] {
			if want.Gaussian[j][l] != got.Gaussian[j][l] || want.Envelopes[j][l] != got.Envelopes[j][l] {
				t.Fatalf("block %d envelope %d sample %d differs", i, j, l)
			}
		}
	}
}
