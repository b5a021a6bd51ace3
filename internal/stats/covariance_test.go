package stats

import (
	"math"
	"testing"

	"repro/internal/cmplxmat"
	"repro/internal/randx"
)

func TestSampleCovarianceIdentity(t *testing.T) {
	// i.i.d. CN(0,1) components: covariance must converge to the identity.
	rng := randx.New(1)
	const n, draws = 3, 60000
	samples := make([][]complex128, draws)
	for i := range samples {
		samples[i] = rng.ComplexNormalVector(n, 1)
	}
	cov, err := SampleCovariance(samples)
	if err != nil {
		t.Fatalf("SampleCovariance: %v", err)
	}
	if !cmplxmat.EqualApprox(cov, cmplxmat.Identity(n), 0.03) {
		t.Errorf("sample covariance of white vectors deviates from identity:\n%v", cov)
	}
}

func TestSampleCovarianceKnownCorrelation(t *testing.T) {
	// Construct z2 = z1 exactly: covariance should be [[1,1],[1,1]] scaled by
	// the common power.
	rng := randx.New(2)
	const draws = 40000
	samples := make([][]complex128, draws)
	for i := range samples {
		z := rng.ComplexNormal(2)
		samples[i] = []complex128{z, z}
	}
	cov, err := SampleCovariance(samples)
	if err != nil {
		t.Fatalf("SampleCovariance: %v", err)
	}
	want := cmplxmat.MustFromRows([][]complex128{{2, 2}, {2, 2}})
	if !cmplxmat.EqualApprox(cov, want, 0.08) {
		t.Errorf("sample covariance:\n%v\nwant approximately\n%v", cov, want)
	}
}

func TestSampleCovarianceErrors(t *testing.T) {
	if _, err := SampleCovariance(nil); err == nil {
		t.Errorf("SampleCovariance(nil) did not error")
	}
	if _, err := SampleCovariance([][]complex128{{}}); err == nil {
		t.Errorf("SampleCovariance with empty vectors did not error")
	}
	if _, err := SampleCovariance([][]complex128{{1, 2}, {1}}); err == nil {
		t.Errorf("SampleCovariance with ragged samples did not error")
	}
}

func TestSampleCovarianceFromSeries(t *testing.T) {
	rng := randx.New(3)
	const m = 50000
	s1 := rng.ComplexNormalVector(m, 1)
	s2 := make([]complex128, m)
	for i := range s2 {
		s2[i] = s1[i] // perfectly correlated
	}
	cov, err := SampleCovarianceFromSeries([][]complex128{s1, s2})
	if err != nil {
		t.Fatalf("SampleCovarianceFromSeries: %v", err)
	}
	want := cmplxmat.MustFromRows([][]complex128{{1, 1}, {1, 1}})
	if !cmplxmat.EqualApprox(cov, want, 0.03) {
		t.Errorf("series covariance:\n%v\nwant approximately\n%v", cov, want)
	}

	if _, err := SampleCovarianceFromSeries(nil); err == nil {
		t.Errorf("empty series did not error")
	}
	if _, err := SampleCovarianceFromSeries([][]complex128{{}}); err == nil {
		t.Errorf("zero-length series did not error")
	}
	if _, err := SampleCovarianceFromSeries([][]complex128{{1, 2}, {1}}); err == nil {
		t.Errorf("ragged series did not error")
	}
}

func TestCompareCovariance(t *testing.T) {
	a := cmplxmat.Identity(2)
	b := cmplxmat.MustFromRows([][]complex128{{1, 0.1}, {0.1, 1}})
	e, err := CompareCovariance(b, a)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	if math.Abs(e.MaxAbs-0.1) > 1e-12 {
		t.Errorf("MaxAbs = %g, want 0.1", e.MaxAbs)
	}
	wantFrob := math.Sqrt(0.02)
	if math.Abs(e.Frobenius-wantFrob) > 1e-12 {
		t.Errorf("Frobenius = %g, want %g", e.Frobenius, wantFrob)
	}
	if math.Abs(e.Relative-wantFrob/math.Sqrt2) > 1e-12 {
		t.Errorf("Relative = %g, want %g", e.Relative, wantFrob/math.Sqrt2)
	}
	if _, err := CompareCovariance(a, cmplxmat.New(3, 3)); err == nil {
		t.Errorf("size mismatch did not error")
	}
}

func TestSampleCovarianceZeroMeanApproximation(t *testing.T) {
	// The estimator assumes zero-mean inputs; verify the generated complex
	// Gaussian vectors indeed have negligible mean so the assumption holds in
	// the pipeline.
	rng := randx.New(4)
	const n, draws = 4, 30000
	samples := make([][]complex128, draws)
	for i := range samples {
		samples[i] = rng.ComplexNormalVector(n, 1)
	}
	mean := make([]complex128, n)
	for _, s := range samples {
		for i, v := range s {
			mean[i] += v / draws
		}
	}
	for i, v := range mean {
		if math.Hypot(real(v), imag(v)) > 0.02 {
			t.Errorf("component %d mean %v too far from zero", i, v)
		}
	}
}
