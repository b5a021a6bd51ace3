package core

import (
	"math"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/stats"
)

func TestNewSnapshotGeneratorValidation(t *testing.T) {
	if _, err := NewSnapshotGenerator(SnapshotConfig{}); err == nil {
		t.Errorf("nil covariance did not error")
	}
	if _, err := NewSnapshotGenerator(SnapshotConfig{Covariance: cmplxmat.New(2, 3)}); err == nil {
		t.Errorf("rectangular covariance did not error")
	}
	if _, err := NewSnapshotGenerator(SnapshotConfig{Covariance: cmplxmat.Identity(2), SampleVariance: -1}); err == nil {
		t.Errorf("negative sample variance did not error")
	}
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: chanspec.Eq22Covariance(), Seed: 1})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	if g.N() != 3 {
		t.Errorf("N = %d, want 3", g.N())
	}
	if g.sampleVar != 1 {
		t.Errorf("default sample variance = %g, want 1", g.sampleVar)
	}
	if g.Diagnostics() == nil || g.Diagnostics().NumClamped != 0 {
		t.Errorf("Eq. (22) should be PSD with no clamping")
	}
	if g.coloring.Rows() != 3 {
		t.Errorf("coloring matrix has wrong size")
	}
}

func TestSnapshotDimensionsAndEnvelopes(t *testing.T) {
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: chanspec.Eq22Covariance(), Seed: 2})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	s := g.Generate()
	if len(s.Gaussian) != 3 || len(s.Envelopes) != 3 {
		t.Fatalf("snapshot sizes: %d Gaussians, %d envelopes", len(s.Gaussian), len(s.Envelopes))
	}
	for i, r := range s.Envelopes {
		want := math.Hypot(real(s.Gaussian[i]), imag(s.Gaussian[i]))
		if math.Abs(r-want) > 1e-14 {
			t.Errorf("envelope %d = %g, want |z| = %g", i, r, want)
		}
		if r < 0 {
			t.Errorf("negative envelope %g", r)
		}
	}
}

func TestSnapshotSampleCovarianceMatchesTarget(t *testing.T) {
	// Section 4.5: E(Z·Zᴴ) must equal the desired covariance matrix.
	k := chanspec.Eq22Covariance()
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 3})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	const draws = 120000
	samples := make([][]complex128, draws)
	for i := range samples {
		samples[i] = g.Generate().Gaussian
	}
	cov, err := stats.SampleCovariance(samples)
	if err != nil {
		t.Fatalf("SampleCovariance: %v", err)
	}
	cmp, err := stats.CompareCovariance(cov, k)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	if cmp.MaxAbs > 0.03 {
		t.Errorf("sample covariance deviates from target by %g (max entry):\n%v", cmp.MaxAbs, cov)
	}
}

func TestSnapshotSampleVarianceInvariance(t *testing.T) {
	// The output statistics must not depend on the arbitrary σ²_g of step 6.
	k := chanspec.Eq22Covariance()
	for _, sv := range []float64{0.01, 1, 7.3} {
		g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, SampleVariance: sv, Seed: 4})
		if err != nil {
			t.Fatalf("NewSnapshotGenerator(σ²_g=%g): %v", sv, err)
		}
		const draws = 60000
		samples := make([][]complex128, draws)
		for i := range samples {
			samples[i] = g.Generate().Gaussian
		}
		cov, err := stats.SampleCovariance(samples)
		if err != nil {
			t.Fatalf("SampleCovariance: %v", err)
		}
		cmp, err := stats.CompareCovariance(cov, k)
		if err != nil {
			t.Fatalf("CompareCovariance: %v", err)
		}
		if cmp.MaxAbs > 0.04 {
			t.Errorf("σ²_g=%g: sample covariance deviates by %g", sv, cmp.MaxAbs)
		}
	}
}

func TestSnapshotUnequalPowers(t *testing.T) {
	// Unequal-power generation is one of the paper's headline generalizations.
	powers := []float64{1, 4, 0.25}
	rho := cmplxmat.MustFromRows([][]complex128{
		{1, 0.5, 0.2 + 0.1i},
		{0.5, 1, 0.3},
		{0.2 - 0.1i, 0.3, 1},
	})
	k, err := CovarianceFromCorrelation(rho, powers)
	if err != nil {
		t.Fatalf("CovarianceFromCorrelation: %v", err)
	}
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 5})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	const draws = 150000
	sumSq := make([]float64, 3)
	for i := 0; i < draws; i++ {
		s := g.Generate()
		for j, r := range s.Envelopes {
			sumSq[j] += r * r
		}
	}
	for j, p := range powers {
		got := sumSq[j] / draws
		if math.Abs(got-p) > 0.03*p {
			t.Errorf("envelope %d mean square power = %g, want %g", j, got, p)
		}
	}
}

func TestSnapshotEnvelopeMomentsFollowEq14And15(t *testing.T) {
	k := cmplxmat.Identity(1)
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 6})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	const draws = 200000
	env := make([]float64, draws)
	for i := range env {
		env[i] = g.Generate().Envelopes[0]
	}
	mean, err := stats.Mean(env)
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	variance, err := stats.Variance(env)
	if err != nil {
		t.Fatalf("Variance: %v", err)
	}
	wantMean, _ := ExpectedEnvelopeMean(1)
	wantVar, _ := GaussianPowerToEnvelopeVariance(1)
	if math.Abs(mean-wantMean) > 0.01*wantMean {
		t.Errorf("envelope mean = %g, want %g (Eq. 14)", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.03*wantVar {
		t.Errorf("envelope variance = %g, want %g (Eq. 15)", variance, wantVar)
	}
}

func TestSnapshotFromEnvelopePowers(t *testing.T) {
	// Start from desired envelope variances σr² (step 1, Eq. (11)) and verify
	// the generated envelopes indeed have those variances.
	rho := cmplxmat.MustFromRows([][]complex128{
		{1, 0.6},
		{0.6, 1},
	})
	envVars := []float64{0.5, 2}
	k, err := CovarianceFromEnvelopePowers(rho, envVars)
	if err != nil {
		t.Fatalf("CovarianceFromEnvelopePowers: %v", err)
	}
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 7})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	const draws = 200000
	env := make([][]float64, 2)
	env[0] = make([]float64, draws)
	env[1] = make([]float64, draws)
	for i := 0; i < draws; i++ {
		s := g.Generate()
		env[0][i] = s.Envelopes[0]
		env[1][i] = s.Envelopes[1]
	}
	for j, want := range envVars {
		v, err := stats.Variance(env[j])
		if err != nil {
			t.Fatalf("Variance: %v", err)
		}
		if math.Abs(v-want) > 0.04*want {
			t.Errorf("envelope %d variance = %g, want σr² = %g", j, v, want)
		}
	}
}

func TestSnapshotFromEnvelopePowersValidation(t *testing.T) {
	rho := cmplxmat.Identity(2)
	if _, err := CovarianceFromEnvelopePowers(nil, []float64{1, 1}); err == nil {
		t.Errorf("nil correlation did not error")
	}
	if _, err := CovarianceFromEnvelopePowers(rho, []float64{1}); err == nil {
		t.Errorf("size mismatch did not error")
	}
	if _, err := CovarianceFromEnvelopePowers(rho, []float64{1, -1}); err == nil {
		t.Errorf("negative envelope variance did not error")
	}
}

func TestCovarianceFromCorrelationValidation(t *testing.T) {
	rho := cmplxmat.Identity(2)
	if _, err := CovarianceFromCorrelation(rho, []float64{1}); err == nil {
		t.Errorf("size mismatch did not error")
	}
	if _, err := CovarianceFromCorrelation(rho, []float64{1, 0}); err == nil {
		t.Errorf("non-positive power did not error")
	}
	if _, err := CovarianceFromCorrelation(cmplxmat.New(2, 3), []float64{1, 1}); err == nil {
		t.Errorf("rectangular correlation did not error")
	}
}

func TestSnapshotIndefiniteCovarianceStillGenerates(t *testing.T) {
	// For an indefinite desired K the generator must still work and its
	// output covariance must match the forced PSD approximation K̄ — the
	// paper's Section 4.5 statement.
	k := indefiniteCovariance()
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 8})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	if g.Diagnostics().NumClamped == 0 {
		t.Fatalf("indefinite covariance reported as PSD")
	}
	const draws = 120000
	samples := make([][]complex128, draws)
	for i := range samples {
		samples[i] = g.Generate().Gaussian
	}
	cov, err := stats.SampleCovariance(samples)
	if err != nil {
		t.Fatalf("SampleCovariance: %v", err)
	}
	cmpForced, err := stats.CompareCovariance(cov, g.Diagnostics().Forced)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	if cmpForced.MaxAbs > 0.03 {
		t.Errorf("sample covariance deviates from forced K̄ by %g", cmpForced.MaxAbs)
	}
	// And it must be closer to K̄ than to the (unachievable) indefinite K.
	cmpOrig, err := stats.CompareCovariance(cov, k)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	if cmpOrig.Frobenius < cmpForced.Frobenius {
		t.Errorf("sample covariance closer to the indefinite K (%g) than to K̄ (%g)",
			cmpOrig.Frobenius, cmpForced.Frobenius)
	}
}

func TestSnapshotDeterministicSeed(t *testing.T) {
	k := chanspec.Eq22Covariance()
	g1, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 42})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	g2, err := NewSnapshotGenerator(SnapshotConfig{Covariance: k, Seed: 42})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	for i := 0; i < 20; i++ {
		a := g1.Generate()
		b := g2.Generate()
		for j := range a.Gaussian {
			if a.Gaussian[j] != b.Gaussian[j] {
				t.Fatalf("same seed produced different snapshot %d", i)
			}
		}
	}
}
