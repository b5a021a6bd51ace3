package corrmodel_test

import (
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/corrmodel"
)

// TestSpectralCovarianceReproducesEq22 lives in the external test package
// because chanspec, which holds the printed Eq. (22), imports corrmodel.
func TestSpectralCovarianceReproducesEq22(t *testing.T) {
	m := corrmodel.PaperSpectralModel(t)
	res, err := m.Covariance()
	if err != nil {
		t.Fatalf("Covariance: %v", err)
	}
	want := chanspec.Eq22Covariance()
	// The paper prints four decimal places; allow for its rounding.
	if !cmplxmat.EqualApprox(res.Matrix, want, 6e-4) {
		t.Errorf("spectral covariance does not reproduce Eq. (22):\ngot\n%v\nwant\n%v", res.Matrix, want)
	}
}
