package rayleigh

// Ablation benchmarks. These are not tied to a specific table or figure of
// the paper (those live in bench_test.go); they quantify the design choices
// behind the engine: the Doppler substrate, the autocorrelation estimator
// and the eigendecomposition setup cost.

import (
	"math"
	"testing"

	"repro/internal/cmplxmat"
	"repro/internal/corrmodel"
	"repro/internal/doppler"
	"repro/internal/dsp"
	"repro/internal/randx"
	"repro/internal/stats"
)

// BenchmarkAblationIDFTvsSumOfSinusoids compares the two Doppler substrates:
// the Young–Beaulieu IDFT generator used by the paper and the classical
// sum-of-sinusoids simulator. The reported metrics are each method's worst
// deviation from the designed J0 autocorrelation over the first 40 lags, at
// matched sample budgets. The IDFT method is the more accurate per sample,
// which is why the paper builds on it.
func BenchmarkAblationIDFTvsSumOfSinusoids(b *testing.B) {
	const (
		fm      = 0.05
		m       = 2048
		maxLag  = 40
		rounds  = 6
		sosTone = 32
	)
	idftGen, err := doppler.NewGenerator(doppler.FilterSpec{M: m, NormalizedDoppler: fm}, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(211)

	var idftWorst, sosWorst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idftAcc := make([]float64, maxLag+1)
		sosAcc := make([]float64, maxLag+1)
		for r := 0; r < rounds; r++ {
			// IDFT block.
			blk := idftGen.Block(rng)
			rho, err := stats.LaggedAutocorrelation(blk, maxLag)
			if err != nil {
				b.Fatal(err)
			}
			// Independent sum-of-sinusoids realization of the same length.
			sos, err := doppler.NewSumOfSinusoids(fm, sosTone, 1, rng.Split())
			if err != nil {
				b.Fatal(err)
			}
			sosBlk, err := sos.Block(0, m)
			if err != nil {
				b.Fatal(err)
			}
			sosRho, err := stats.LaggedAutocorrelation(sosBlk, maxLag)
			if err != nil {
				b.Fatal(err)
			}
			for d := 0; d <= maxLag; d++ {
				idftAcc[d] += rho[d]
				sosAcc[d] += sosRho[d]
			}
		}
		idftWorst, sosWorst = 0, 0
		for d := 0; d <= maxLag; d++ {
			want := doppler.TheoreticalAutocorrelation(fm, d)
			if dev := math.Abs(idftAcc[d]/rounds - want); dev > idftWorst {
				idftWorst = dev
			}
			if dev := math.Abs(sosAcc[d]/rounds - want); dev > sosWorst {
				sosWorst = dev
			}
		}
	}
	b.ReportMetric(idftWorst, "autocorrDev_IDFT")
	b.ReportMetric(sosWorst, "autocorrDev_SoS")
}

// BenchmarkAblationFFTvsDirectAutocorrelation quantifies the O(M log M)
// Wiener–Khinchin autocorrelation against the O(M·L) direct estimator at the
// paper's block size; the validation pipeline relies on the FFT route.
func BenchmarkAblationFFTvsDirectAutocorrelation(b *testing.B) {
	rng := randx.New(223)
	x := rng.ComplexNormalVector(4096, 1)
	const maxLag = 100

	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dsp.Autocorrelation(x, maxLag); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fft", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dsp.AutocorrelationFFT(x, maxLag); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEigenDecompositionScaling measures the Hermitian eigendecomposition
// cost as the number of envelopes grows — the setup cost a user pays once per
// covariance matrix.
func BenchmarkEigenDecompositionScaling(b *testing.B) {
	for _, n := range []int{4, 8, 16, 32, 64} {
		model := &corrmodel.ExponentialModel{N: n, Rho: 0.8, PhaseRad: 0.3, Power: 1}
		res, err := model.Covariance()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cmplxmat.EigenHermitian(res.Matrix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return "N" + string(rune('0'+n/10)) + string(rune('0'+n%10))
}
