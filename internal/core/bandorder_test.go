package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/doppler"
	"repro/internal/fading"
	"repro/internal/randx"
)

// exponentialCovariance is the real target K[i][j] = rho^|i−j|.
func exponentialCovariance(n int, rho float64) *cmplxmat.Matrix {
	k := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			k.Set(i, j, complex(math.Pow(rho, math.Abs(float64(i-j))), 0))
		}
	}
	return k
}

// covarianceForN gives each tested envelope count a target: a scalar, the
// complex Eq. (22) matrix, and real exponential matrices at the larger N.
func covarianceForN(n int) *cmplxmat.Matrix {
	switch n {
	case 1:
		return cmplxmat.MustFromRows([][]complex128{{2}})
	case 3:
		return chanspec.Eq22Covariance()
	}
	return exponentialCovariance(n, 0.7)
}

// timeDomainBlock is the test-local reference for fillBlock: the order of
// Fig. 3 taken literally. Each row is a whole Young–Beaulieu block from
// Generator.BlockInto (drawn from the same per-row stream GenerateBlockAt
// uses), one ColorBlock colors the N×M time panel with the segment's L/σ_g,
// and the same envelope pass or fading transform follows.
func timeDomainBlock(t *testing.T, g *RealTimeGenerator, index uint64) *Block {
	t.Helper()
	seg := &g.segments[chanspec.SegmentIndexAt(g.trajectory, index)]
	w := cmplxmat.New(g.n, g.m)
	z := cmplxmat.New(g.n, g.m)
	root := randx.New(g.blockRoot.SplitSeedAt(index))
	for j := 0; j < g.n; j++ {
		if err := seg.gen.BlockInto(randx.New(root.SplitSeed()), w.RowView(j)); err != nil {
			t.Fatalf("BlockInto: %v", err)
		}
	}
	if err := cmplxmat.ColorBlock(seg.coloring, w, z); err != nil {
		t.Fatalf("ColorBlock: %v", err)
	}
	b := NewBlock(g.n, g.m)
	offset := index * uint64(g.m)
	for j := 0; j < g.n; j++ {
		copy(b.Gaussian[j], z.RowView(j))
		if g.transform != nil {
			g.transform.Apply(j, offset, b.Gaussian[j], b.Envelopes[j])
			continue
		}
		for l, v := range b.Gaussian[j] {
			re, im := real(v), imag(v)
			b.Envelopes[j][l] = math.Sqrt(re*re + im*im)
		}
	}
	return b
}

// blockDeviation returns the largest sample and envelope differences between
// two blocks, each relative to the reference block's Gaussian RMS.
func blockDeviation(ref, got *Block) (gauss, env float64) {
	var power float64
	var count int
	for j := range ref.Gaussian {
		for l, v := range ref.Gaussian[j] {
			power += real(v)*real(v) + imag(v)*imag(v)
			count++
			d := got.Gaussian[j][l] - v
			gauss = math.Max(gauss, math.Sqrt(real(d)*real(d)+imag(d)*imag(d)))
			env = math.Max(env, math.Abs(got.Envelopes[j][l]-ref.Envelopes[j][l]))
		}
	}
	rms := math.Sqrt(power / float64(count))
	return gauss / rms, env / rms
}

// TestBandOrderMatchesTimeDomain pins the reordering of the block hot path:
// coloring the N×B band spectra before the IDFT yields the block Fig. 3
// describes (N IDFT rows colored at every instant) up to rounding. It covers
// N ∈ {1, 3, 32, 64}, an even and an odd power of two M (1024 and 2048,
// whose transforms start with a radix-4 and a radix-2 pass), the narrowest
// band (k_m = 1), the paper's fm and the widest valid band (2·k_m = M − 2),
// every fading transform, and a two-segment trajectory read across its seam.
// Both Gaussian samples and envelopes must agree within 1e-13 × block RMS;
// the largest deviations observed over these cases were 3.9e-15 (Gaussian)
// and 2.9e-15 (envelope).
func TestBandOrderMatchesTimeDomain(t *testing.T) {
	const tol = 1e-13
	type tc struct {
		name string
		cfg  RealTimeConfig
	}
	var cases []tc
	for _, n := range []int{1, 3, 32, 64} {
		for _, m := range []int{1024, 2048} {
			for _, fm := range []float64{1.5 / float64(m), 0.05, (float64(m/2-1) + 0.5) / float64(m)} {
				cases = append(cases, tc{
					name: fmt.Sprintf("rayleigh/N=%d/M=%d/km=%d", n, m, int(fm*float64(m))),
					cfg: RealTimeConfig{
						Covariance: covarianceForN(n),
						Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: fm},
						Seed:       int64(n*m) + 7,
					},
				})
			}
		}
	}
	models := []struct {
		name   string
		params *chanspec.FadingParams
	}{
		{chanspec.FadingRician, &chanspec.FadingParams{KFactor: 4}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
		{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}},
	}
	for _, md := range models {
		tr, err := fading.New(md.name, md.params, []float64{1, 1, 1}, 11)
		if err != nil {
			t.Fatalf("fading.New(%s): %v", md.name, err)
		}
		for _, m := range []int{1024, 2048} {
			cases = append(cases, tc{
				name: fmt.Sprintf("%s/N=3/M=%d", md.name, m),
				cfg: RealTimeConfig{
					Covariance: chanspec.Eq22Covariance(),
					Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
					Seed:       int64(m) + 13,
					Transform:  tr,
				},
			})
		}
	}
	for _, m := range []int{1024, 2048} {
		cases = append(cases, tc{
			name: fmt.Sprintf("%s/N=32/M=%d", chanspec.FadingNonstationaryDoppler, m),
			cfg: RealTimeConfig{
				Covariance: exponentialCovariance(32, 0.7),
				Filter:     doppler.FilterSpec{M: m},
				Seed:       int64(m) + 17,
				DopplerSegments: []chanspec.DopplerSegment{
					{Blocks: 2, NormalizedDoppler: 0.02},
					{Blocks: 2, NormalizedDoppler: 0.1},
				},
			},
		})
	}

	var worstGauss, worstEnv float64
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := NewRealTimeGenerator(c.cfg)
			if err != nil {
				t.Fatalf("NewRealTimeGenerator: %v", err)
			}
			s := g.NewBlockScratch()
			got := NewBlock(g.N(), g.BlockLength())
			// Blocks 1 and 2 sit on either side of the trajectory seam.
			for _, index := range []uint64{0, 1, 2, 5} {
				if err := g.GenerateBlockAt(index, got, s); err != nil {
					t.Fatalf("GenerateBlockAt(%d): %v", index, err)
				}
				ref := timeDomainBlock(t, g, index)
				dg, de := blockDeviation(ref, got)
				worstGauss, worstEnv = math.Max(worstGauss, dg), math.Max(worstEnv, de)
				if dg > tol || de > tol {
					t.Fatalf("block %d: Gaussian deviates by %.3g × RMS, envelope by %.3g × RMS (tolerance %g)",
						index, dg, de, tol)
				}
			}
		})
	}
	t.Logf("largest deviation over %d cases: Gaussian %.3g × RMS, envelope %.3g × RMS", len(cases), worstGauss, worstEnv)
}

// TestNewBlockScratchFootprint bounds a block workspace at fadingd's limits
// (N = 64, M = 65536) at fm = 0.05: its two panels hold N×B band spectra,
// B = 2·k_m = 6552, so the scratch stays under 16 MiB where two N×M time
// panels took 128 MiB. Every cursor and worker owns one scratch.
func TestNewBlockScratchFootprint(t *testing.T) {
	const n, m = 64, 65536
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: exponentialCovariance(n, 0.5),
		Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := g.NewBlockScratch()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	const limit = 16 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("NewBlockScratch allocated %.2f MiB, want < %d MiB", float64(got)/(1<<20), limit>>20)
	}
}

// BenchmarkGenerateBlockAt times one real-time block at M = 4096, fm = 0.05
// (B = 408 band bins): the paper's N = 3 Eq. (22) channel, and N = 32, where
// the coloring GEMM dominated while it ran over all M time samples.
func BenchmarkGenerateBlockAt(b *testing.B) {
	for _, n := range []int{3, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			k := chanspec.Eq22Covariance()
			if n != 3 {
				k = exponentialCovariance(n, 0.7)
			}
			g, err := NewRealTimeGenerator(RealTimeConfig{
				Covariance: k,
				Filter:     paperFilter(),
				Seed:       67,
			})
			if err != nil {
				b.Fatal(err)
			}
			s := g.NewBlockScratch()
			blk := NewBlock(g.N(), g.BlockLength())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := g.GenerateBlockAt(uint64(i), blk, s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.N()*g.BlockLength())*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
