package rayleigh

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/chanspec"
)

// paperSpectralCovariance returns the public-API covariance for the paper's
// Section 6 spectral scenario (Eq. (22)).
func paperSpectralCovariance(t *testing.T) [][]complex128 {
	t.Helper()
	cov, err := SpectralCovariance(SpectralConfig{
		Frequencies:    []float64{400e3, 200e3, 0},
		Delays:         [][]float64{{0, 1e-3, 4e-3}, {1e-3, 0, 3e-3}, {4e-3, 3e-3, 0}},
		MaxDopplerHz:   50,
		RMSDelaySpread: 1e-6,
		Power:          1,
	})
	if err != nil {
		t.Fatalf("SpectralCovariance: %v", err)
	}
	return cov
}

func TestSpectralCovarianceMatchesEq22(t *testing.T) {
	cov := paperSpectralCovariance(t)
	want := chanspec.Eq22Covariance()
	for i := range cov {
		for j := range cov[i] {
			if cmplx.Abs(cov[i][j]-want.At(i, j)) > 6e-4 {
				t.Errorf("K(%d,%d) = %v, want %v", i, j, cov[i][j], want.At(i, j))
			}
		}
	}
}

func TestSpatialCovarianceMatchesEq23(t *testing.T) {
	cov, err := SpatialCovariance(SpatialConfig{
		Antennas:           3,
		SpacingWavelengths: 1,
		AngularSpreadRad:   math.Pi / 18,
		MeanAngleRad:       0,
	})
	if err != nil {
		t.Fatalf("SpatialCovariance: %v", err)
	}
	want := [][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	}
	for i := range want {
		for j := range want[i] {
			if cmplx.Abs(cov[i][j]-want[i][j]) > 6e-4 {
				t.Errorf("K(%d,%d) = %v, want %v", i, j, cov[i][j], want[i][j])
			}
		}
	}
}

func TestModelConfigValidation(t *testing.T) {
	if _, err := SpectralCovariance(SpectralConfig{}); err == nil {
		t.Errorf("empty spectral config did not error")
	}
	if _, err := SpectralCovariance(SpectralConfig{
		Frequencies:  []float64{0, 1e3},
		MaxDopplerHz: -1,
	}); err == nil {
		t.Errorf("negative Doppler did not error")
	}
	if _, err := SpatialCovariance(SpatialConfig{}); err == nil {
		t.Errorf("empty spatial config did not error")
	}
	if _, err := SpatialCovariance(SpatialConfig{Antennas: 2, SpacingWavelengths: 0.5}); err == nil {
		t.Errorf("zero angular spread did not error")
	}
}

func TestSpectralCovarianceDefaultDelaysAndPower(t *testing.T) {
	cov, err := SpectralCovariance(SpectralConfig{
		Frequencies:    []float64{0, 200e3},
		MaxDopplerHz:   50,
		RMSDelaySpread: 1e-6,
	})
	if err != nil {
		t.Fatalf("SpectralCovariance: %v", err)
	}
	if real(cov[0][0]) != 1 || real(cov[1][1]) != 1 {
		t.Errorf("default power should be 1, got diagonal %v %v", cov[0][0], cov[1][1])
	}
}

func TestNewGeneratorAndSnapshot(t *testing.T) {
	gen, err := New(Config{Covariance: paperSpectralCovariance(t), Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if gen.N() != 3 {
		t.Errorf("N = %d, want 3", gen.N())
	}
	s := gen.Snapshot()
	if len(s.Gaussian) != 3 || len(s.Envelopes) != 3 {
		t.Fatalf("snapshot sizes %d/%d", len(s.Gaussian), len(s.Envelopes))
	}
	for i := range s.Envelopes {
		if math.Abs(s.Envelopes[i]-cmplx.Abs(s.Gaussian[i])) > 1e-14 {
			t.Errorf("envelope %d is not |z|", i)
		}
	}
	d := gen.Diagnostics()
	if d.ClampedEigenvalues != 0 || d.ApproximationError > 1e-12 || len(d.Eigenvalues) != 3 {
		t.Errorf("unexpected diagnostics for a PSD matrix: %+v", d)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Errorf("empty covariance did not error")
	}
	if _, err := New(Config{Covariance: [][]complex128{{1, 2}}}); err == nil {
		t.Errorf("non-square covariance did not error")
	}
	if _, err := New(Config{Covariance: [][]complex128{{1, 2}, {3, 4}}}); err == nil {
		t.Errorf("non-Hermitian covariance did not error")
	}
	// A NaN or infinite entry would stream NaN samples; every method rejects
	// it at construction.
	for _, v := range []complex128{complex(math.NaN(), 0), complex(0, math.Inf(1)), complex(math.Inf(-1), 0)} {
		for _, method := range []string{MethodGeneralized, MethodBeaulieuMerani} {
			if _, err := New(Config{Covariance: [][]complex128{{1, v}, {cmplx.Conj(v), 1}}, Method: method}); err == nil {
				t.Errorf("%s: covariance entry %v did not error", method, v)
			}
		}
	}
	// So is a finite target outside the covariance scale window.
	for name, k := range outOfScaleCovariances() {
		for _, method := range []string{MethodGeneralized, MethodBeaulieuMerani} {
			if _, err := New(Config{Covariance: k, Method: method}); err == nil {
				t.Errorf("%s: covariance %s did not error", method, name)
			}
		}
	}
}

// outOfScaleCovariances are finite targets outside the covariance scale
// window: below it, above it where the forcing error of an indefinite target
// overflows, and large enough to overflow a sample.
func outOfScaleCovariances() map[string][][]complex128 {
	return map[string][][]complex128{
		"identity·1e-170":        {{1e-170, 0}, {0, 1e-170}},
		"[[1, 2], [2, 1]]·1e160": {{1e160, 2e160}, {2e160, 1e160}},
		"identity·1e308":         {{1e308, 0}, {0, 1e308}},
	}
}

func TestCovarianceFromEnvelopePowers(t *testing.T) {
	rho := [][]complex128{
		{1, 0.5},
		{0.5, 1},
	}
	k, err := CovarianceFromEnvelopePowers(rho, []float64{1, 2})
	if err != nil {
		t.Fatalf("CovarianceFromEnvelopePowers: %v", err)
	}
	gen, err := New(Config{Covariance: k, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Check Eq. (15): average envelope variance over many snapshots matches
	// the requested σr².
	const draws = 150000
	sum := make([]float64, 2)
	sumSq := make([]float64, 2)
	for i := 0; i < draws; i++ {
		s := gen.Snapshot()
		for j, r := range s.Envelopes {
			sum[j] += r
			sumSq[j] += r * r
		}
	}
	for j, want := range []float64{1, 2} {
		mean := sum[j] / draws
		variance := sumSq[j]/draws - mean*mean
		if math.Abs(variance-want) > 0.05*want {
			t.Errorf("envelope %d variance = %g, want %g", j, variance, want)
		}
	}

	if _, err := CovarianceFromEnvelopePowers(nil, []float64{1}); err == nil {
		t.Errorf("nil correlation did not error")
	}
	if _, err := CovarianceFromEnvelopePowers(rho, []float64{1}); err == nil {
		t.Errorf("size mismatch did not error")
	}
}

func TestGeneratorHandlesIndefiniteCovariance(t *testing.T) {
	indefinite := [][]complex128{
		{1, 0.9, -0.9},
		{0.9, 1, 0.9},
		{-0.9, 0.9, 1},
	}
	gen, err := New(Config{Covariance: indefinite, Seed: 5})
	if err != nil {
		t.Fatalf("New(indefinite): %v", err)
	}
	d := gen.Diagnostics()
	if d.ClampedEigenvalues == 0 {
		t.Errorf("expected eigenvalue clamping for an indefinite target")
	}
	if d.ApproximationError <= 0 {
		t.Errorf("expected positive approximation error, got %g", d.ApproximationError)
	}
	s := gen.Snapshot()
	if len(s.Envelopes) != 3 {
		t.Errorf("snapshot has %d envelopes", len(s.Envelopes))
	}
}

func TestPowerHelpers(t *testing.T) {
	sg2, err := EnvelopePowerToGaussianPower(1)
	if err != nil {
		t.Fatalf("EnvelopePowerToGaussianPower: %v", err)
	}
	back, err := GaussianPowerToEnvelopeVariance(sg2)
	if err != nil || math.Abs(back-1) > 1e-12 {
		t.Errorf("round trip = %g, %v", back, err)
	}
	mean, err := ExpectedEnvelopeMean(1)
	if err != nil || math.Abs(mean-0.8862269254527580) > 1e-12 {
		t.Errorf("ExpectedEnvelopeMean = %g, %v", mean, err)
	}
	if _, err := EnvelopePowerToGaussianPower(0); err == nil {
		t.Errorf("zero envelope power did not error")
	}
	if _, err := GaussianPowerToEnvelopeVariance(-1); err == nil {
		t.Errorf("negative Gaussian power did not error")
	}
	if _, err := ExpectedEnvelopeMean(0); err == nil {
		t.Errorf("zero Gaussian power did not error")
	}
}

func TestRealTimePublicAPI(t *testing.T) {
	s, err := NewStream(RealTimeConfig{
		Covariance:        paperSpectralCovariance(t),
		IDFTPoints:        512,
		NormalizedDoppler: 0.05,
		Seed:              7,
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	if s.N() != 3 || s.BlockLength() != 512 {
		t.Errorf("N=%d, BlockLength=%d", s.N(), s.BlockLength())
	}
	cur, err := s.NewCursor()
	if err != nil {
		t.Fatalf("NewCursor: %v", err)
	}
	var b Block
	if err := cur.Next(&b); err != nil {
		t.Fatalf("Next: %v", err)
	}
	if len(b.Gaussian) != 3 || len(b.Envelopes) != 3 || len(b.Envelopes[0]) != 512 {
		t.Fatalf("block shape wrong")
	}
	if math.Abs(s.TheoreticalAutocorrelation(0)-1) > 1e-12 {
		t.Errorf("TheoreticalAutocorrelation(0) != 1")
	}
	if s.Diagnostics().ClampedEigenvalues != 0 {
		t.Errorf("unexpected clamping for Eq. (22)")
	}

	for name, cfg := range map[string]RealTimeConfig{
		"invalid Doppler configuration": {Covariance: paperSpectralCovariance(t), IDFTPoints: 8, NormalizedDoppler: 0.01},
		"non-power-of-two IDFT length":  {Covariance: paperSpectralCovariance(t), IDFTPoints: 1000, NormalizedDoppler: 0.05},
		"empty real-time config":        {},
		"NaN covariance entry": {Covariance: [][]complex128{{1, complex(math.NaN(), 0)}, {complex(math.NaN(), 0), 1}},
			IDFTPoints: 512, NormalizedDoppler: 0.05},
		"infinite covariance entry": {Covariance: [][]complex128{{complex(math.Inf(1), 0), 0}, {0, 1}},
			IDFTPoints: 512, NormalizedDoppler: 0.05},
		"NaN input variance": {Covariance: paperSpectralCovariance(t), IDFTPoints: 512, NormalizedDoppler: 0.05,
			InputVariance: math.NaN()},
		"infinite Rician K-factor": {Covariance: paperSpectralCovariance(t), IDFTPoints: 512, NormalizedDoppler: 0.05,
			Fading: FadingRician, FadingParams: &FadingParams{KFactor: math.Inf(1)}},
		"NaN Rician LOS phase": {Covariance: paperSpectralCovariance(t), IDFTPoints: 512, NormalizedDoppler: 0.05,
			Fading: FadingRician, FadingParams: &FadingParams{KFactor: 2, LOSPhaseRad: math.NaN()}},
		"infinite Suzuki shadowing": {Covariance: paperSpectralCovariance(t), IDFTPoints: 512, NormalizedDoppler: 0.05,
			Fading: FadingSuzuki, FadingParams: &FadingParams{ShadowSigmaDB: math.Inf(1)}},
		"Suzuki shadowing over 100 dB": {Covariance: paperSpectralCovariance(t), IDFTPoints: 512, NormalizedDoppler: 0.05,
			Fading: FadingSuzuki, FadingParams: &FadingParams{ShadowSigmaDB: 1000}},
	} {
		if _, err := NewStream(cfg); err == nil {
			t.Errorf("%s did not error", name)
		}
	}
	for name, k := range outOfScaleCovariances() {
		if _, err := NewStream(RealTimeConfig{Covariance: k, IDFTPoints: 512, NormalizedDoppler: 0.05}); err == nil {
			t.Errorf("covariance %s did not error", name)
		}
	}
}

func TestGeneratorDeterministicAcrossConstruction(t *testing.T) {
	cov := paperSpectralCovariance(t)
	g1, err := New(Config{Covariance: cov, Seed: 11})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	g2, err := New(Config{Covariance: cov, Seed: 11})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for i := 0; i < 5; i++ {
		a, b := g1.Snapshot(), g2.Snapshot()
		for j := range a.Gaussian {
			if a.Gaussian[j] != b.Gaussian[j] {
				t.Fatalf("same seed, different snapshots")
			}
		}
	}
}
