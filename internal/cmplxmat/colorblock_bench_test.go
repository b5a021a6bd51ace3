package cmplxmat_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
)

// BenchmarkColorBlock times the coloring GEMM of a real-time block with the
// coloring matrices the engine builds (core.ColoringFromCovariance, the
// eigen construction of Section 4.3), on the two panel widths a block can
// present at M = 4096, fm = 0.05: all M time samples, or the B = 2·k_m = 408
// Doppler bins the generator colors. "real/N=32" is the exponential ρ = 0.7
// target, whose coloring is full and real, so the real kernels run;
// "eq22/N=3" is the paper's Eq. (22) target, whose complex coloring runs the
// complex kernel.
func BenchmarkColorBlock(b *testing.B) {
	exponential, err := (&chanspec.Model{Type: chanspec.ModelExponential, N: 32, Rho: 0.7}).Build()
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for _, target := range []struct {
		name    string
		k       *cmplxmat.Matrix
		complex bool
	}{
		{"real/N=32", exponential, false},
		{"eq22/N=3", chanspec.Eq22Covariance(), true},
	} {
		l, _, err := core.ColoringFromCovariance(target.k)
		if err != nil {
			b.Fatal(err)
		}
		complexEntries, zeros := 0, 0
		for _, v := range l.Data() {
			if imag(v) != 0 {
				complexEntries++
			}
			if v == 0 {
				zeros++
			}
		}
		if zeros != 0 || (complexEntries > 0) != target.complex {
			b.Fatalf("%s: coloring has %d zero and %d complex entries", target.name, zeros, complexEntries)
		}
		n := l.Rows()
		for _, cols := range []int{4096, 408} {
			w := cmplxmat.New(n, cols)
			for i, data := 0, w.Data(); i < len(data); i++ {
				data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			}
			z := cmplxmat.New(n, cols)
			b.Run(fmt.Sprintf("%s/cols=%d", target.name, cols), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := cmplxmat.ColorBlock(l, w, z); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
