package rayleigh

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/chanspec"
)

var streamTestCovariance = chanspec.Eq22Covariance().ToRows()

func streamTestConfig(seed int64) RealTimeConfig {
	return RealTimeConfig{
		Covariance:        streamTestCovariance,
		IDFTPoints:        128,
		NormalizedDoppler: 0.05,
		Seed:              seed,
	}
}

// TestStreamMatchesBlocksInto pins the one real-time block sequence: block k
// is the same, bit for bit, from Cursor.Next, from Cursor.BlockAt in reverse
// order and from the parallel fill the scenario engine runs (one cursor per
// goroutine, each reading every workers-th block, at 1 and 4 workers). The
// Suzuki transform depends on the sample offset and the nonstationary
// trajectory changes segment at block 4.
func TestStreamMatchesBlocksInto(t *testing.T) {
	const blocks = 8
	configs := map[string]RealTimeConfig{
		FadingRayleigh: streamTestConfig(11),
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

			for _, workers := range []int{1, 4} {
				dst := make([]Block, blocks)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := range workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						c, err := s.NewCursor()
						for i := w; err == nil && i < blocks; i += workers {
							err = c.BlockAt(uint64(i), &dst[i])
						}
						errs[w] = err
					}()
				}
				wg.Wait()
				if err := errors.Join(errs...); err != nil {
					t.Fatalf("%d cursors: %v", workers, err)
				}
				for i := range want {
					assertBlocksEqual(t, i, want[i], &dst[i])
				}
			}
			var got Block
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
	s, err := NewStream(streamTestConfig(23))
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
	s, err := NewStream(streamTestConfig(29))
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
