package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/doppler"
	"repro/internal/stats"
)

// paperFilter is the Section 6 Doppler configuration: M = 4096, fm = 0.05.
// Tests use a smaller M where possible to keep runtimes reasonable; the
// benchmarks exercise the full-size configuration.
func paperFilter() doppler.FilterSpec {
	return doppler.FilterSpec{M: 4096, NormalizedDoppler: 0.05}
}

func smallFilter() doppler.FilterSpec {
	return doppler.FilterSpec{M: 512, NormalizedDoppler: 0.05}
}

func TestNewRealTimeGeneratorValidation(t *testing.T) {
	if _, err := NewRealTimeGenerator(RealTimeConfig{Filter: smallFilter()}); err == nil {
		t.Errorf("nil covariance did not error")
	}
	if _, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: cmplxmat.Identity(2),
		Filter:     doppler.FilterSpec{M: 8, NormalizedDoppler: 0.01},
	}); err == nil {
		t.Errorf("invalid filter spec did not error")
	}
	if _, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance:    cmplxmat.Identity(2),
		Filter:        smallFilter(),
		InputVariance: -1,
	}); err == nil {
		t.Errorf("negative input variance did not error")
	}
}

func TestRealTimeGeneratorBasicProperties(t *testing.T) {
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: chanspec.Eq22Covariance(),
		Filter:     smallFilter(),
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	if g.N() != 3 {
		t.Errorf("N = %d, want 3", g.N())
	}
	if g.BlockLength() != 512 {
		t.Errorf("BlockLength = %d, want 512", g.BlockLength())
	}
	if g.Diagnostics() == nil {
		t.Errorf("Diagnostics is nil")
	}
	// σ²_g must equal the Doppler output variance of Eq. (19), not 1.
	dg, err := doppler.NewGenerator(smallFilter(), 0.5)
	if err != nil {
		t.Fatalf("doppler.NewGenerator: %v", err)
	}
	if math.Abs(g.SampleVariance()-dg.OutputVariance()) > 1e-12 {
		t.Errorf("SampleVariance = %g, want Eq. (19) value %g", g.SampleVariance(), dg.OutputVariance())
	}
	if math.Abs(g.TheoreticalAutocorrelation(0)-1) > 1e-12 {
		t.Errorf("TheoreticalAutocorrelation(0) = %g, want 1", g.TheoreticalAutocorrelation(0))
	}
}

func TestRealTimeBlockShape(t *testing.T) {
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: chanspec.Eq22Covariance(),
		Filter:     smallFilter(),
		Seed:       2,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	b := blocksAt(t, g, 0, 1, 1)[0]
	if len(b.Gaussian) != 3 || len(b.Envelopes) != 3 {
		t.Fatalf("block has %d Gaussian rows, %d envelope rows", len(b.Gaussian), len(b.Envelopes))
	}
	for j := 0; j < 3; j++ {
		if len(b.Gaussian[j]) != 512 || len(b.Envelopes[j]) != 512 {
			t.Fatalf("row %d has %d/%d samples, want 512", j, len(b.Gaussian[j]), len(b.Envelopes[j]))
		}
		for l := 0; l < 512; l++ {
			want := math.Hypot(real(b.Gaussian[j][l]), imag(b.Gaussian[j][l]))
			if math.Abs(b.Envelopes[j][l]-want) > 1e-14 {
				t.Errorf("envelope (%d,%d) does not equal |z|", j, l)
			}
		}
	}
	if sv := blockSigmaG2(g, 0); sv != g.SampleVariance() {
		t.Errorf("block 0 is whitened with σ²_g = %g, generator reports %g", sv, g.SampleVariance())
	}
}

// blockSigmaG2 returns the σ²_g that whitens block k: that of the
// trajectory segment serving it.
func blockSigmaG2(g *RealTimeGenerator, k uint64) float64 {
	return g.segments[chanspec.SegmentIndexAt(g.trajectory, k)].sigmaG2
}

// TestNewRealTimeGeneratorFootprint bounds what construction allocates at
// N = 32, M = 4096: less than one N×M complex panel, in fewer than 36
// allocations. Every fadingd session and setup-cache entry holds a
// generator, so GEMM panels or per-envelope Doppler generators built at
// construction would multiply across them; block workspaces are the
// callers' BlockScratch values instead, and construction builds no
// snapshot-mode state (seed RNG, batch root, scratch vectors).
func TestNewRealTimeGeneratorFootprint(t *testing.T) {
	const n, m = 32, 4096
	cfg := RealTimeConfig{
		Covariance: exponentialCovariance(n, 0.5),
		Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
		Seed:       1,
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := NewRealTimeGenerator(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	runtime.KeepAlive(g)
	const panel = n * m * 16
	if got := after.TotalAlloc - before.TotalAlloc; got >= panel {
		t.Errorf("NewRealTimeGenerator allocated %.2f MiB, want < %.2f MiB (one %d×%d complex panel)",
			float64(got)/(1<<20), float64(panel)/(1<<20), n, m)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewRealTimeGenerator(cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs >= 36 {
		t.Errorf("NewRealTimeGenerator makes %v allocations, want < 36", allocs)
	}
}

func TestRealTimeCovarianceMatchesTarget(t *testing.T) {
	// The headline claim of Section 5: with the Eq. (19) variance correction,
	// the time-averaged covariance of the colored Doppler outputs matches the
	// desired covariance matrix.
	k := chanspec.Eq22Covariance()
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: k,
		Filter:     doppler.FilterSpec{M: 1024, NormalizedDoppler: 0.05},
		Seed:       3,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	const blocks = 30
	series := make([][]complex128, 3)
	for j := range series {
		series[j] = make([]complex128, 0, blocks*1024)
	}
	for _, blk := range blocksAt(t, g, 0, blocks, 1) {
		for j := 0; j < 3; j++ {
			series[j] = append(series[j], blk.Gaussian[j]...)
		}
	}
	cov, err := stats.SampleCovarianceFromSeries(series)
	if err != nil {
		t.Fatalf("SampleCovarianceFromSeries: %v", err)
	}
	cmp, err := stats.CompareCovariance(cov, k)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	if cmp.MaxAbs > 0.06 {
		t.Errorf("real-time sample covariance deviates from target by %g:\n%v", cmp.MaxAbs, cov)
	}
}

func TestRealTimeUnitVarianceAssumptionBreaksCovariance(t *testing.T) {
	// Reproduce the defect of [6]: assuming σ²_g = 1 scales the output
	// covariance by the (far from unity) Doppler filter gain, so the target
	// is badly missed. This is experiment E7's mechanism.
	k := chanspec.Eq22Covariance()
	spec := doppler.FilterSpec{M: 1024, NormalizedDoppler: 0.05}
	gBad, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance:         k,
		Filter:             spec,
		Seed:               4,
		AssumeUnitVariance: true,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	if gBad.SampleVariance() != 1 {
		t.Fatalf("AssumeUnitVariance did not take effect")
	}
	const blocks = 10
	series := make([][]complex128, 3)
	for _, blk := range blocksAt(t, gBad, 0, blocks, 1) {
		for j := 0; j < 3; j++ {
			series[j] = append(series[j], blk.Gaussian[j]...)
		}
	}
	cov, err := stats.SampleCovarianceFromSeries(series)
	if err != nil {
		t.Fatalf("SampleCovarianceFromSeries: %v", err)
	}
	cmp, err := stats.CompareCovariance(cov, k)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	// The true Doppler output variance differs from 1 by far more than 20%,
	// so the diagonal of the sample covariance must be visibly off.
	if cmp.MaxAbs < 0.2 {
		t.Errorf("unit-variance assumption produced covariance error of only %g; expected a large bias", cmp.MaxAbs)
	}
}

func TestRealTimeEnvelopeAutocorrelationFollowsJ0(t *testing.T) {
	// Each generated complex Gaussian process must carry the Jakes
	// autocorrelation J0(2π·fm·d) (the per-envelope design goal of Fig. 3).
	spec := doppler.FilterSpec{M: 2048, NormalizedDoppler: 0.05}
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: chanspec.Eq22Covariance(),
		Filter:     spec,
		Seed:       5,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	const blocks = 25
	maxLag := 40
	acc := make([]float64, maxLag+1)
	for _, blk := range blocksAt(t, g, 0, blocks, 1) {
		rho, err := stats.LaggedAutocorrelation(blk.Gaussian[0], maxLag)
		if err != nil {
			t.Fatalf("LaggedAutocorrelation: %v", err)
		}
		for d := range acc {
			acc[d] += rho[d]
		}
	}
	for d := 0; d <= maxLag; d++ {
		got := acc[d] / float64(blocks)
		want := doppler.TheoreticalAutocorrelation(spec.NormalizedDoppler, d)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("lag %d: autocorrelation %g vs J0 %g", d, got, want)
		}
	}
}

func TestRealTimeEnvelopesAreRayleigh(t *testing.T) {
	// Per-envelope amplitude distribution must pass a KS test against the
	// Rayleigh law with scale derived from the target Gaussian power.
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: chanspec.Eq22Covariance(),
		Filter:     doppler.FilterSpec{M: 1024, NormalizedDoppler: 0.05},
		Seed:       6,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	var env []float64
	for _, blk := range blocksAt(t, g, 0, 20, 1) {
		env = append(env, blk.Envelopes[1]...)
	}
	d, err := stats.NewRayleighFromGaussianPower(1)
	if err != nil {
		t.Fatalf("NewRayleighFromGaussianPower: %v", err)
	}
	stat, _, err := stats.KolmogorovSmirnovRayleigh(env, d)
	if err != nil {
		t.Fatalf("KS: %v", err)
	}
	// Successive samples are correlated (by design), which inflates the KS
	// statistic relative to an i.i.d. sample; bound it loosely.
	if stat > 0.05 {
		t.Errorf("KS statistic %g too large: envelope distribution is not Rayleigh", stat)
	}
}

func TestRealTimeDeterministicSeed(t *testing.T) {
	cfg := RealTimeConfig{
		Covariance: chanspec.Eq22Covariance(),
		Filter:     smallFilter(),
		Seed:       77,
	}
	g1, err := NewRealTimeGenerator(cfg)
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	g2, err := NewRealTimeGenerator(cfg)
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	b1 := blocksAt(t, g1, 0, 1, 1)[0]
	b2 := blocksAt(t, g2, 0, 1, 1)[0]
	for j := range b1.Gaussian {
		for l := range b1.Gaussian[j] {
			if b1.Gaussian[j][l] != b2.Gaussian[j][l] {
				t.Fatalf("same seed produced different blocks at (%d,%d)", j, l)
			}
		}
	}
}
