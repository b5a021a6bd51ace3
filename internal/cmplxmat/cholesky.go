package cmplxmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNotPositiveDefinite reports that a Cholesky factorization encountered a
// non-positive pivot, i.e. the matrix is not (numerically) positive definite.
// This is exactly the failure mode the paper attributes to the conventional
// Cholesky-based generators: an indefinite or rank-deficient covariance
// matrix aborts the decomposition.
var ErrNotPositiveDefinite = errors.New("cmplxmat: matrix is not positive definite")

// Cholesky computes the lower-triangular factor L of a Hermitian positive
// definite matrix A such that A = L·Lᴴ. It returns ErrNotPositiveDefinite if
// any pivot is not strictly positive (within round-off of the matrix scale),
// mirroring the strict behaviour of MATLAB's chol() that the baseline
// methods in the paper rely on.
func Cholesky(a *Matrix) (*Matrix, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("cmplxmat: Cholesky of %dx%d matrix: %w", a.rows, a.cols, ErrDimension)
	}
	scale := MaxAbs(a)
	if !a.IsHermitian(hermitianTol * math.Max(scale, 1)) {
		return nil, ErrNotHermitian
	}
	n := a.rows
	l := New(n, n)
	// Pivot tolerance relative to the matrix scale: pivots at or below this
	// are treated as "not positive definite" rather than silently producing
	// enormous factors.
	pivTol := 1e-13 * math.Max(scale, 1e-300)

	for j := 0; j < n; j++ {
		sum := real(a.At(j, j))
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			sum -= real(ljk)*real(ljk) + imag(ljk)*imag(ljk)
		}
		if sum <= pivTol {
			return nil, fmt.Errorf("cmplxmat: pivot %d is %.3e: %w", j, sum, ErrNotPositiveDefinite)
		}
		ljj := math.Sqrt(sum)
		l.Set(j, j, complex(ljj, 0))
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * cmplx.Conj(l.At(j, k))
			}
			l.Set(i, j, s/complex(ljj, 0))
		}
	}
	return l, nil
}

// LowerTriangularFromEigen reports whether a matrix is lower triangular within
// tolerance. Tests use it to tell a Cholesky factor from an eigen coloring.
func LowerTriangularFromEigen(m *Matrix, tol float64) bool {
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if cmplx.Abs(m.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}
