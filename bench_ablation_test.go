package rayleigh

// Setup-cost benchmark: the eigendecomposition behind every coloring matrix.

import (
	"testing"

	"repro/internal/cmplxmat"
	"repro/internal/corrmodel"
)

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
