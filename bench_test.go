package rayleigh

// Benchmark harness: one benchmark per evaluation artifact of the paper,
// numbered E1–E9 (Eq. (22)/(23) covariances, Fig. 4, and the Section 4–5
// claims). Each benchmark regenerates the workload behind the corresponding
// table/figure/claim and reports, through b.ReportMetric, its reproduction
// metric (covariance errors, statistical deviations, Frobenius distances), so
// the "shape" comparison against the paper is visible directly in the
// benchmark output. The pass/fail gates for E5–E9 are the scenarios/ specs
// tagged "paper" (go run ./cmd/scenariorun -run paper; docs/scenarios.md);
// the throughput families are documented in docs/benchmarking.md.

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/corrmodel"
	"repro/internal/doppler"
	"repro/internal/randx"
	"repro/internal/stats"
)

// paperEq22Matrix is the covariance matrix the paper prints as Eq. (22).
func paperEq22Matrix() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.3782 + 0.4753i, 0.0878 + 0.2207i},
		{0.3782 - 0.4753i, 1, 0.3063 + 0.3849i},
		{0.0878 - 0.2207i, 0.3063 - 0.3849i, 1},
	})
}

// paperEq23Matrix is the covariance matrix the paper prints as Eq. (23).
func paperEq23Matrix() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	})
}

// paperSpectralModel is the Section 6 spectral configuration behind Eq. (22)
// and Fig. 4(a).
func paperSpectralModelBench() *corrmodel.SpectralModel {
	return &corrmodel.SpectralModel{
		MaxDopplerHz:   50,
		RMSDelaySpread: 1e-6,
		Power:          1,
		Frequencies:    []float64{400e3, 200e3, 0},
		Delays: [][]float64{
			{0, 1e-3, 4e-3},
			{1e-3, 0, 3e-3},
			{4e-3, 3e-3, 0},
		},
	}
}

// paperSpatialModelBench is the Section 6 spatial configuration behind
// Eq. (23) and Fig. 4(b).
func paperSpatialModelBench() *corrmodel.SpatialModel {
	return &corrmodel.SpatialModel{
		N:                  3,
		SpacingWavelengths: 1,
		AngularSpread:      math.Pi / 18,
		MeanAngle:          0,
		Power:              1,
	}
}

// paperDopplerSpec is the Section 6 Doppler configuration: M = 4096 IDFT
// points, fm = Fm/Fs = 0.05 (Fm = 50 Hz, Fs = 1 kHz), km = 204.
func paperDopplerSpec() doppler.FilterSpec {
	return doppler.FilterSpec{M: 4096, NormalizedDoppler: 0.05}
}

// maxAbsDiffMatrix returns the worst absolute entry difference between two
// matrices of equal size.
func maxAbsDiffMatrix(a, b *cmplxmat.Matrix) float64 {
	var worst float64
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if d := cmplx.Abs(a.At(i, j) - b.At(i, j)); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// BenchmarkEq22SpectralCovariance — experiment E1: rebuild the covariance
// matrix of Eq. (22) from the physical parameters (Jakes spectral model) and
// report the worst entry deviation from the values printed in the paper.
func BenchmarkEq22SpectralCovariance(b *testing.B) {
	model := paperSpectralModelBench()
	want := paperEq22Matrix()
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := model.Covariance()
		if err != nil {
			b.Fatal(err)
		}
		worst = maxAbsDiffMatrix(res.Matrix, want)
	}
	b.ReportMetric(worst, "maxAbsErr_vs_paper")
}

// BenchmarkEq23SpatialCovariance — experiment E2: rebuild the covariance
// matrix of Eq. (23) from the Salz–Winters spatial model.
func BenchmarkEq23SpatialCovariance(b *testing.B) {
	model := paperSpatialModelBench()
	want := paperEq23Matrix()
	var worst float64
	for i := 0; i < b.N; i++ {
		res, err := model.Covariance()
		if err != nil {
			b.Fatal(err)
		}
		worst = maxAbsDiffMatrix(res.Matrix, want)
	}
	b.ReportMetric(worst, "maxAbsErr_vs_paper")
}

// benchmarkFig4 runs the real-time generator with the paper's Doppler
// parameters over the given covariance matrix, reproducing one panel of
// Fig. 4. It reports how far the time-averaged covariance of the generated
// Gaussians is from the target (the quantitative version of "the three
// envelopes are correlated as designed").
func benchmarkFig4(b *testing.B, k *cmplxmat.Matrix, seed int64) {
	b.Helper()
	gen, err := core.NewRealTimeGenerator(core.RealTimeConfig{
		Covariance:    k,
		Filter:        paperDopplerSpec(),
		InputVariance: 0.5,
		Seed:          seed,
	})
	if err != nil {
		b.Fatal(err)
	}
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := gen.GenerateBlock()
		cov, err := stats.SampleCovarianceFromSeries(blk.Gaussian)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := stats.CompareCovariance(cov, k)
		if err != nil {
			b.Fatal(err)
		}
		worst = cmp.MaxAbs
	}
	b.ReportMetric(worst, "covErr_block")
	b.ReportMetric(float64(gen.BlockLength()), "samples/block")
}

// BenchmarkFig4aSpectralEnvelopes — experiment E3: three frequency-correlated
// envelopes in the real-time (Doppler) scenario, Fig. 4(a) parameters.
func BenchmarkFig4aSpectralEnvelopes(b *testing.B) {
	res, err := paperSpectralModelBench().Covariance()
	if err != nil {
		b.Fatal(err)
	}
	benchmarkFig4(b, res.Matrix, 41)
}

// BenchmarkFig4bSpatialEnvelopes — experiment E4: three spatially-correlated
// envelopes in the real-time (Doppler) scenario, Fig. 4(b) parameters.
func BenchmarkFig4bSpatialEnvelopes(b *testing.B) {
	res, err := paperSpatialModelBench().Covariance()
	if err != nil {
		b.Fatal(err)
	}
	benchmarkFig4(b, res.Matrix, 43)
}

// BenchmarkStatisticalValidation — experiments E5 and E9: snapshot-mode
// generation against Eq. (22); reports the sample-covariance error and the
// deviation of the envelope mean/variance from Eq. (14)–(15).
func BenchmarkStatisticalValidation(b *testing.B) {
	k := paperEq22Matrix()
	gen, err := core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: k, Seed: 47})
	if err != nil {
		b.Fatal(err)
	}
	const drawsPerIteration = 20000
	var covErr, meanErr, varErr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		samples := make([][]complex128, drawsPerIteration)
		env := make([]float64, drawsPerIteration)
		for d := range samples {
			s := gen.Generate()
			samples[d] = s.Gaussian
			env[d] = s.Envelopes[0]
		}
		cov, err := stats.SampleCovariance(samples)
		if err != nil {
			b.Fatal(err)
		}
		cmp, err := stats.CompareCovariance(cov, k)
		if err != nil {
			b.Fatal(err)
		}
		covErr = cmp.MaxAbs

		mean, _ := stats.Mean(env)
		variance, _ := stats.Variance(env)
		wantMean, _ := core.ExpectedEnvelopeMean(1)
		wantVar, _ := core.GaussianPowerToEnvelopeVariance(1)
		meanErr = math.Abs(mean-wantMean) / wantMean
		varErr = math.Abs(variance-wantVar) / wantVar
	}
	b.ReportMetric(covErr, "covErr")
	b.ReportMetric(meanErr, "envMeanRelErr_eq14")
	b.ReportMetric(varErr, "envVarRelErr_eq15")
}

// BenchmarkNonPSDHandling — experiment E6: an indefinite desired covariance
// matrix. The Cholesky baselines must fail; the proposed eigen coloring must
// succeed with a Frobenius approximation error no worse than the ε-clamp of
// Sorooshyari–Daut. The reported metrics are the two approximation errors.
func BenchmarkNonPSDHandling(b *testing.B) {
	indefinite := cmplxmat.MustFromRows([][]complex128{
		{1, 0.9, -0.9},
		{0.9, 1, 0.9},
		{-0.9, 0.9, 1},
	})
	var proposedErr, epsilonErr float64
	choleskyFailures := 0
	for i := 0; i < b.N; i++ {
		if err := (&baseline.CholeskyColoring{}).Setup(indefinite); err != nil {
			choleskyFailures++
		}
		forced, err := core.ForcePSD(indefinite)
		if err != nil {
			b.Fatal(err)
		}
		proposedErr = forced.FrobeniusError

		eps := &baseline.EpsilonEigen{Epsilon: baseline.DefaultEpsilon}
		if err := eps.Setup(indefinite); err != nil {
			b.Fatal(err)
		}
		epsilonErr = eps.ApproximationError()
	}
	if choleskyFailures != b.N {
		b.Fatalf("Cholesky unexpectedly succeeded on an indefinite matrix (%d/%d failures)", choleskyFailures, b.N)
	}
	b.ReportMetric(proposedErr, "frobErr_proposed_zeroClamp")
	b.ReportMetric(epsilonErr, "frobErr_baseline_epsClamp")
}

// BenchmarkDopplerVarianceEffect — experiment E7: real-time generation with
// and without the Eq. (19) variance correction. The proposed method's
// covariance error stays small; the unit-variance assumption of [6] misses
// the target by the Doppler filter gain.
func BenchmarkDopplerVarianceEffect(b *testing.B) {
	k := paperEq22Matrix()
	spec := doppler.FilterSpec{M: 1024, NormalizedDoppler: 0.05}
	proposed, err := core.NewRealTimeGenerator(core.RealTimeConfig{
		Covariance: k, Filter: spec, InputVariance: 0.5, Seed: 53,
	})
	if err != nil {
		b.Fatal(err)
	}
	assumed, err := core.NewRealTimeGenerator(core.RealTimeConfig{
		Covariance: k, Filter: spec, InputVariance: 0.5, Seed: 53, AssumeUnitVariance: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var errProposed, errAssumed float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for name, gen := range map[string]*core.RealTimeGenerator{"proposed": proposed, "assumed": assumed} {
			blk := gen.GenerateBlock()
			cov, err := stats.SampleCovarianceFromSeries(blk.Gaussian)
			if err != nil {
				b.Fatal(err)
			}
			cmp, err := stats.CompareCovariance(cov, k)
			if err != nil {
				b.Fatal(err)
			}
			if name == "proposed" {
				errProposed = cmp.MaxAbs
			} else {
				errAssumed = cmp.MaxAbs
			}
		}
	}
	b.ReportMetric(errProposed, "covErr_proposed_eq19")
	b.ReportMetric(errAssumed, "covErr_unitVarAssumption")
	b.ReportMetric(proposed.SampleVariance(), "sigmaG2_eq19")
}

// BenchmarkDopplerAutocorrelation — experiment E8: the per-envelope
// autocorrelation of the Young–Beaulieu generator output versus the designed
// J0(2π·fm·d) over the first 100 lags; reports the worst deviation.
func BenchmarkDopplerAutocorrelation(b *testing.B) {
	spec := paperDopplerSpec()
	gen, err := doppler.NewGenerator(spec, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	rng := randx.New(59)
	const maxLag = 100
	var worst float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Average several blocks per iteration to tame estimator noise.
		const blocks = 8
		acc := make([]float64, maxLag+1)
		for blk := 0; blk < blocks; blk++ {
			block := gen.Block(rng)
			rho, err := stats.LaggedAutocorrelation(block, maxLag)
			if err != nil {
				b.Fatal(err)
			}
			for d := range acc {
				acc[d] += rho[d]
			}
		}
		worst = 0
		for d := 0; d <= maxLag; d++ {
			got := acc[d] / blocks
			want := doppler.TheoreticalAutocorrelation(spec.NormalizedDoppler, d)
			if dev := math.Abs(got - want); dev > worst {
				worst = dev
			}
		}
	}
	b.ReportMetric(worst, "maxAutocorrDev_vs_J0")
}

// benchExponentialCovariance builds the n×n exponential correlation matrix
// K[i][j] = 0.7^|i-j|, the scalable positive definite target behind the
// N = 16 throughput cases.
func benchExponentialCovariance(n int) *cmplxmat.Matrix {
	m := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			m.Set(i, j, complex(math.Pow(0.7, float64(d)), 0))
		}
	}
	return m
}

// throughputCovariances are the covariance targets of the throughput
// benchmarks: the paper's N = 3 matrix of Eq. (22) plus a scaled-up N = 16
// case where the batched coloring engine has room to work.
func throughputCovariances() []struct {
	name string
	k    *cmplxmat.Matrix
} {
	return []struct {
		name string
		k    *cmplxmat.Matrix
	}{
		{"N=3", paperEq22Matrix()},
		{"N=16", benchExponentialCovariance(16)},
	}
}

// BenchmarkSnapshotGenerationThroughput measures the raw cost of one snapshot
// draw — the operational figure a simulation user cares about when embedding
// the generator in a link-level Monte-Carlo loop. The allocating Generate path
// and the zero-allocation GenerateInto path are measured side by side for the
// paper's N = 3 case and a scaled-up N = 16 case.
func BenchmarkSnapshotGenerationThroughput(b *testing.B) {
	for _, cfg := range throughputCovariances() {
		gen, err := core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: cfg.k, Seed: 61})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = gen.Generate()
			}
		})
		b.Run(cfg.name+"/into", func(b *testing.B) {
			gaussian := make([]complex128, gen.N())
			env := make([]float64, gen.N())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gen.GenerateInto(gaussian, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRealTimeBlockThroughput measures the cost of one full real-time
// block (M = 4096 samples per envelope) with the paper's Doppler parameters,
// for both the allocating GenerateBlock path and the zero-allocation
// GenerateBlockInto path at N = 3 and N = 16.
func BenchmarkRealTimeBlockThroughput(b *testing.B) {
	for _, cfg := range throughputCovariances() {
		gen, err := core.NewRealTimeGenerator(core.RealTimeConfig{
			Covariance:    cfg.k,
			Filter:        paperDopplerSpec(),
			InputVariance: 0.5,
			Seed:          67,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = gen.GenerateBlock()
			}
		})
		b.Run(cfg.name+"/into", func(b *testing.B) {
			blk := core.NewBlock(gen.N(), gen.BlockLength())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gen.GenerateBlockInto(blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkColoringAblationEigenVsCholesky quantifies the design choice the
// paper makes in Section 4.3 (eigen coloring instead of Cholesky): for a
// positive definite covariance matrix both produce a valid coloring matrix;
// the benchmark reports the reconstruction error of each so the precision
// cost (none) and the applicability gain (Cholesky cannot run on indefinite
// inputs at all, see BenchmarkNonPSDHandling) are both on record.
func BenchmarkColoringAblationEigenVsCholesky(b *testing.B) {
	k := paperEq22Matrix()
	var eigenErr, cholErr float64
	for i := 0; i < b.N; i++ {
		l, forced, err := core.ColoringFromCovariance(k)
		if err != nil {
			b.Fatal(err)
		}
		eigenErr = core.VerifyColoring(l, forced)

		c, err := cmplxmat.Cholesky(k)
		if err != nil {
			b.Fatal(err)
		}
		rec := cmplxmat.MustMul(c, cmplxmat.ConjTranspose(c))
		cholErr = cmplxmat.FrobeniusDistance(rec, k)
	}
	b.ReportMetric(eigenErr, "reconErr_eigen")
	b.ReportMetric(cholErr, "reconErr_cholesky")
}
