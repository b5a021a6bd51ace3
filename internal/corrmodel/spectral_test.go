package corrmodel

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/cmplxmat"
)

// paperSpectralModel returns the exact Section 6 configuration of the paper:
// N = 3 carriers separated by 200 kHz, Fm = 50 Hz, στ = 1 µs, unit powers and
// the delay table τ12 = 1 ms, τ23 = 3 ms, τ13 = 4 ms.
func paperSpectralModel(t *testing.T) *SpectralModel {
	t.Helper()
	delays := [][]float64{
		{0, 1e-3, 4e-3},
		{1e-3, 0, 3e-3},
		{4e-3, 3e-3, 0},
	}
	m, err := NewUniformSpectral(UniformSpectralParams{
		N:                3,
		CarrierSpacingHz: 200e3,
		MaxDopplerHz:     50,
		RMSDelaySpread:   1e-6,
		Power:            1,
		PairDelays:       delays,
	})
	if err != nil {
		t.Fatalf("NewUniformSpectral: %v", err)
	}
	return m
}

// PaperSpectralModel lets the external corrmodel_test package, which can
// import chanspec, build the same configuration.
var PaperSpectralModel = paperSpectralModel

func TestSpectralCovarianceIsHermitianPSD(t *testing.T) {
	m := paperSpectralModel(t)
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	if !res.Matrix.IsHermitian(1e-12) {
		t.Errorf("spectral covariance is not Hermitian")
	}
	pd, err := cmplxmat.IsPositiveDefinite(res.Matrix, 1e-10)
	if err != nil {
		t.Fatalf("IsPositiveDefinite: %v", err)
	}
	if !pd {
		t.Errorf("the paper states Eq. (22) is positive definite; got non-PD matrix")
	}
}

func TestSpectralPairSymmetry(t *testing.T) {
	m := paperSpectralModel(t)
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			if k == j {
				continue
			}
			ckj, err := m.Pair(k, j)
			if err != nil {
				t.Fatalf("Pair(%d,%d): %v", k, j, err)
			}
			cjk, err := m.Pair(j, k)
			if err != nil {
				t.Fatalf("Pair(%d,%d): %v", j, k, err)
			}
			// Swapping k and j flips the sign of Δω, hence of Rxy, while Rxx
			// is symmetric: this is what makes K Hermitian.
			if math.Abs(ckj.Rxx-cjk.Rxx) > 1e-15 {
				t.Errorf("Rxx not symmetric for (%d,%d)", k, j)
			}
			if math.Abs(ckj.Rxy+cjk.Rxy) > 1e-15 {
				t.Errorf("Rxy not antisymmetric for (%d,%d)", k, j)
			}
			if cmplx.Abs(ckj.GaussianEntry()-cmplx.Conj(cjk.GaussianEntry())) > 1e-15 {
				t.Errorf("Gaussian entries not Hermitian for (%d,%d)", k, j)
			}
		}
	}
}

func TestSpectralZeroSeparationZeroDelay(t *testing.T) {
	// With zero frequency separation and zero delay the two processes are
	// fully correlated: Rxx = σ²/2, Rxy = 0, so μ = σ².
	m := &SpectralModel{
		MaxDopplerHz:   50,
		RMSDelaySpread: 1e-6,
		Power:          2,
		Frequencies:    []float64{900e6, 900e6},
		Delays:         [][]float64{{0, 0}, {0, 0}},
	}
	cc, err := m.Pair(0, 1)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	if math.Abs(cc.Rxx-1) > 1e-12 || math.Abs(cc.Rxy) > 1e-12 {
		t.Errorf("fully-correlated pair: Rxx = %g (want 1), Rxy = %g (want 0)", cc.Rxx, cc.Rxy)
	}
	if cmplx.Abs(cc.GaussianEntry()-2) > 1e-12 {
		t.Errorf("GaussianEntry = %v, want 2", cc.GaussianEntry())
	}
}

func TestSpectralCorrelationDecaysWithDelay(t *testing.T) {
	// For the first J0 lobe, increasing the arrival delay must not increase
	// the magnitude of the correlation.
	base := paperSpectralModel(t)
	var prev float64 = math.Inf(1)
	for _, tau := range []float64{0, 0.5e-3, 1e-3, 2e-3} {
		base.Delays[0][1] = tau
		base.Delays[1][0] = tau
		cc, err := base.Pair(0, 1)
		if err != nil {
			t.Fatalf("Pair: %v", err)
		}
		mag := cmplx.Abs(cc.GaussianEntry())
		if mag > prev+1e-12 {
			t.Errorf("correlation magnitude increased with delay τ=%g: %g > %g", tau, mag, prev)
		}
		prev = mag
	}
}

func TestSpectralValidation(t *testing.T) {
	good := paperSpectralModel(t)
	if err := good.Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*SpectralModel)
	}{
		{"no frequencies", func(m *SpectralModel) { m.Frequencies = nil }},
		{"negative doppler", func(m *SpectralModel) { m.MaxDopplerHz = -1 }},
		{"negative delay spread", func(m *SpectralModel) { m.RMSDelaySpread = -1e-6 }},
		{"zero power", func(m *SpectralModel) { m.Power = 0 }},
		{"ragged delays", func(m *SpectralModel) { m.Delays = [][]float64{{0, 1}, {1, 0}} }},
	}
	for _, c := range cases {
		m := paperSpectralModel(t)
		c.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate did not error", c.name)
		}
	}

	if _, err := NewUniformSpectral(UniformSpectralParams{N: 0}); err == nil {
		t.Errorf("NewUniformSpectral with N=0 did not error")
	}
}

func TestSpectralPairOutOfRange(t *testing.T) {
	m := paperSpectralModel(t)
	if _, err := m.Pair(0, 3); err == nil {
		t.Errorf("Pair out of range did not error")
	}
	if _, err := m.Pair(-1, 0); err == nil {
		t.Errorf("Pair with negative index did not error")
	}
}

func TestSpectralImaginarySignMatchesPaper(t *testing.T) {
	// The paper's Eq. (22) has positive imaginary parts above the diagonal
	// (f_k > f_j for k < j). Verify the sign convention directly.
	m := paperSpectralModel(t)
	cc, err := m.Pair(0, 1)
	if err != nil {
		t.Fatalf("Pair: %v", err)
	}
	entry := cc.GaussianEntry()
	if imag(entry) <= 0 {
		t.Errorf("upper-triangular imaginary part = %g, want positive as in Eq. (22)", imag(entry))
	}
}
