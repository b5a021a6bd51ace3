package corrmodel

import (
	"math"
	"testing"

	"repro/internal/cmplxmat"
)

// paperSpatialModel returns the Section 6 antenna-array configuration:
// three antennas at spacing D/λ = 1, angular spread Δ = π/18 (10°), mean
// angle Φ = 0, unit power.
func paperSpatialModel() *SpatialModel {
	return &SpatialModel{
		N:                  3,
		SpacingWavelengths: 1,
		AngularSpread:      math.Pi / 18,
		MeanAngle:          0,
		Power:              1,
	}
}

// paperEq23 is the covariance matrix printed as Eq. (23) in the paper.
func paperEq23() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	})
}

func TestSpatialCovarianceReproducesEq23(t *testing.T) {
	m := paperSpatialModel()
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	want := paperEq23()
	if d, err := cmplxmat.Sub(res.Matrix, want); err != nil || cmplxmat.MaxAbs(d) > 6e-4 {
		t.Errorf("spatial covariance does not reproduce Eq. (23):\ngot\n%v\nwant\n%v", res.Matrix, want)
	}
}

func TestSpatialCovarianceRealWhenBroadside(t *testing.T) {
	// Φ = 0 makes every sin((2m+1)Φ) term vanish, so the covariance matrix
	// is real — the paper points this out below Eq. (23).
	m := paperSpatialModel()
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(imag(res.Matrix.At(i, j))) > 1e-12 {
				t.Errorf("entry (%d,%d) has imaginary part %g with Φ=0", i, j, imag(res.Matrix.At(i, j)))
			}
		}
	}
}

func TestSpatialCovarianceComplexOffBroadside(t *testing.T) {
	m := paperSpatialModel()
	m.MeanAngle = math.Pi / 4
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	foundImag := false
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j && math.Abs(imag(res.Matrix.At(i, j))) > 1e-6 {
				foundImag = true
			}
		}
	}
	if !foundImag {
		t.Errorf("Φ=π/4 should produce complex covariances (the paper's criticism of forcing real covariances)")
	}
	if !res.Matrix.IsHermitian(1e-12) {
		t.Errorf("off-broadside covariance is not Hermitian")
	}
}

func TestSpatialIsPositiveDefiniteForPaperCase(t *testing.T) {
	res, err := paperSpatialModel().Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	e, err := cmplxmat.EigenHermitian(res.Matrix)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	if e.Values[0] <= 1e-10 {
		t.Errorf("the paper states Eq. (23) is positive definite; got non-PD matrix")
	}
}

func TestSpatialNormalizedXXAtZeroSeparation(t *testing.T) {
	// Same antenna: R̃xx = J0(0) + 0-series·(terms with J_{2m}(0)=0) = 1.
	m := paperSpatialModel()
	if got := m.NormalizedXX(1, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("NormalizedXX(k,k) = %g, want 1", got)
	}
	if got := m.NormalizedXY(1, 1); math.Abs(got) > 1e-12 {
		t.Errorf("NormalizedXY(k,k) = %g, want 0", got)
	}
}

func TestSpatialCorrelationDecaysWithSeparation(t *testing.T) {
	// |R̃| for separation 2 must be below separation 1 for the paper's
	// parameters (this is visible in Eq. (23): 0.3730 < 0.8123).
	m := paperSpatialModel()
	r1 := math.Abs(m.NormalizedXX(1, 0))
	r2 := math.Abs(m.NormalizedXX(2, 0))
	if r2 >= r1 {
		t.Errorf("correlation did not decay with antenna separation: |R(2)|=%g >= |R(1)|=%g", r2, r1)
	}
}

func TestSpatialWideSpreadApproachesJ0(t *testing.T) {
	// With full angular spread (Δ = π) and Φ = 0 the series terms carry
	// sin(2mπ)/(2mπ) = 0, so R̃xx collapses to J0(z·(k−j)) — the classical
	// Clarke isotropic-scattering result.
	m := &SpatialModel{
		N:                  2,
		SpacingWavelengths: 0.5,
		AngularSpread:      math.Pi,
		MeanAngle:          0,
		Power:              1,
	}
	z := 2 * math.Pi * 0.5
	want := math.J0(z)
	if got := m.NormalizedXX(1, 0); math.Abs(got-want) > 1e-10 {
		t.Errorf("isotropic R̃xx = %g, want J0(z) = %g", got, want)
	}
}

func TestSpatialValidation(t *testing.T) {
	if err := paperSpatialModel().Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*SpatialModel)
	}{
		{"zero antennas", func(m *SpatialModel) { m.N = 0 }},
		{"negative spacing", func(m *SpatialModel) { m.SpacingWavelengths = -1 }},
		{"zero spread", func(m *SpatialModel) { m.AngularSpread = 0 }},
		{"spread beyond pi", func(m *SpatialModel) { m.AngularSpread = 4 }},
		{"mean angle beyond pi", func(m *SpatialModel) { m.MeanAngle = 4 }},
		{"zero power", func(m *SpatialModel) { m.Power = 0 }},
	}
	for _, c := range cases {
		m := paperSpatialModel()
		c.mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate did not error", c.name)
		}
	}
}

func TestSpatialPairOutOfRange(t *testing.T) {
	m := paperSpatialModel()
	if _, err := m.Pair(3, 0); err == nil {
		t.Errorf("Pair out of range did not error")
	}
	if _, err := m.Pair(0, -1); err == nil {
		t.Errorf("Pair with negative index did not error")
	}
}

func TestSpatialHermitianSymmetryOfPairs(t *testing.T) {
	m := paperSpatialModel()
	m.MeanAngle = 0.8 // general case with complex covariances
	for k := 0; k < m.N; k++ {
		for j := 0; j < m.N; j++ {
			if k == j {
				continue
			}
			a, err := m.Pair(k, j)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			b, err := m.Pair(j, k)
			if err != nil {
				t.Fatalf("Pair: %v", err)
			}
			// J_q is odd for odd q, so Rxy flips sign under k↔j while Rxx is
			// even: the Gaussian entries must be complex conjugates.
			if math.Abs(real(a.GaussianEntry())-real(b.GaussianEntry())) > 1e-12 ||
				math.Abs(imag(a.GaussianEntry())+imag(b.GaussianEntry())) > 1e-12 {
				t.Errorf("pair (%d,%d) not Hermitian-symmetric: %v vs %v", k, j, a.GaussianEntry(), b.GaussianEntry())
			}
		}
	}
}

func TestSpatialPowerScaling(t *testing.T) {
	// Doubling σ² must double every covariance entry (Eq. (7)).
	m1 := paperSpatialModel()
	m2 := paperSpatialModel()
	m2.Power = 2
	r1, err := m1.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	r2, err := m2.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	scaled := cmplxmat.Scale(2, r1.Matrix)
	if d, err := cmplxmat.Sub(scaled, r2.Matrix); err != nil || cmplxmat.MaxAbs(d) > 1e-12 {
		t.Errorf("covariance does not scale linearly with power")
	}
}
