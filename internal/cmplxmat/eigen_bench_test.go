package cmplxmat_test

import (
	"fmt"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
)

// BenchmarkEigenDecompositionScaling times the Hermitian eigendecomposition
// of the exponential model at ρ = 0.8 from N = 4 to 64: the setup cost a
// create pays once per covariance target. "real" is θ = 0, the real
// symmetric target of fadingbench's churn-n32 workload; "complex" is
// θ = 0.3, a complex Hermitian target.
func BenchmarkEigenDecompositionScaling(b *testing.B) {
	for _, input := range []struct {
		name  string
		phase float64
	}{{"real", 0}, {"complex", 0.3}} {
		for _, n := range []int{4, 8, 16, 32, 64} {
			k, err := (&chanspec.Model{Type: chanspec.ModelExponential, N: n, Rho: 0.8, PhaseRad: input.phase}).Build()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/N=%d", input.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cmplxmat.EigenHermitian(k); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
