package cmplxmat

import (
	"math"
	"math/cmplx"
)

// FrobeniusNorm returns the Frobenius norm sqrt(Σ|a_ij|²).
func FrobeniusNorm(a *Matrix) float64 {
	var s float64
	for _, v := range a.data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// FrobeniusDistance returns ||a - b||_F. It panics on shape mismatch.
func FrobeniusDistance(a, b *Matrix) float64 {
	d, err := Sub(a, b)
	if err != nil {
		panic(err)
	}
	return FrobeniusNorm(d)
}

// MaxAbs returns the maximum absolute value over all entries.
func MaxAbs(a *Matrix) float64 {
	var m float64
	for _, v := range a.data {
		if av := cmplx.Abs(v); av > m {
			m = av
		}
	}
	return m
}

// OffDiagonalNorm returns sqrt(Σ_{i≠j} |a_ij|²), the quantity driven to zero
// by the Jacobi eigenvalue iteration.
func OffDiagonalNorm(a *Matrix) float64 {
	var s float64
	for i := 0; i < a.rows; i++ {
		for j, v := range a.data[i*a.cols : (i+1)*a.cols] {
			if i == j {
				continue
			}
			s += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return math.Sqrt(s)
}
