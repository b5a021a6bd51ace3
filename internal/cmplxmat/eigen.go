package cmplxmat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
)

// Eigen holds the eigendecomposition A = V · diag(Values) · Vᴴ of a
// Hermitian matrix A. Values are sorted in ascending order and Vectors
// stores the corresponding orthonormal eigenvectors as columns.
type Eigen struct {
	Values  []float64
	Vectors *Matrix
}

// ErrNotHermitian reports that an operation requiring a Hermitian matrix was
// given a matrix that is not Hermitian within tolerance.
var ErrNotHermitian = errors.New("cmplxmat: matrix is not Hermitian")

// ErrNoConvergence reports that an iterative decomposition did not converge
// within its sweep budget.
var ErrNoConvergence = errors.New("cmplxmat: eigendecomposition did not converge")

const (
	hermitianTol = 1e-9
	maxSweeps    = 64
)

// EigenHermitian computes the eigendecomposition of a Hermitian matrix using
// the cyclic complex Jacobi method. The input is validated to be Hermitian
// relative to its own scale; pass a matrix produced by Hermitize if the
// source data carries round-off asymmetry.
//
// The method is the classical two-sided Jacobi iteration: each off-diagonal
// element a_pq is annihilated by a unitary plane rotation composed of a phase
// factor (which makes the 2x2 pivot real symmetric) and a real Givens
// rotation. Convergence is quadratic once the off-diagonal norm is small.
func EigenHermitian(a *Matrix) (*Eigen, error) {
	if !a.IsSquare() {
		return nil, fmt.Errorf("cmplxmat: EigenHermitian of %dx%d matrix: %w", a.rows, a.cols, ErrDimension)
	}
	scale := MaxAbs(a)
	tol := hermitianTol * math.Max(scale, 1)
	if !a.IsHermitian(tol) {
		return nil, ErrNotHermitian
	}

	n := a.rows
	w := a.Clone()
	w.Hermitize() // exact symmetry for the iteration
	v := Identity(n)

	if n == 1 {
		return &Eigen{Values: []float64{real(w.At(0, 0))}, Vectors: v}, nil
	}

	frob := FrobeniusNorm(w)
	if frob == 0 {
		return &Eigen{Values: make([]float64, n), Vectors: v}, nil
	}
	target := 1e-14 * frob

	converged := false
	for sweep := 0; sweep < maxSweeps; sweep++ {
		if OffDiagonalNorm(w) <= target {
			converged = true
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				jacobiRotate(w, v, p, q)
			}
		}
	}
	if !converged && OffDiagonalNorm(w) > math.Sqrt(target)*1e-3 {
		// Allow a slightly relaxed final check: quadratic convergence means
		// falling short of the strict target by a hair is still an excellent
		// decomposition, but a genuinely stuck iteration is reported.
		if OffDiagonalNorm(w) > 1e-8*frob {
			return nil, ErrNoConvergence
		}
	}

	values := make([]float64, n)
	for i := 0; i < n; i++ {
		values[i] = real(w.At(i, i))
	}
	sortEigen(values, v)
	return &Eigen{Values: values, Vectors: v}, nil
}

// jacobiRotate annihilates w[p][q] (and by symmetry w[q][p]) with a unitary
// plane rotation, accumulating the rotation into v.
func jacobiRotate(w, v *Matrix, p, q int) {
	g := w.At(p, q)
	ag := cmplx.Abs(g)
	if ag == 0 {
		return
	}
	app := real(w.At(p, p))
	aqq := real(w.At(q, q))
	// Skip numerically negligible pivots: rotating on them only stirs
	// round-off noise.
	if ag <= 1e-300 || ag <= 1e-17*(math.Abs(app)+math.Abs(aqq)) {
		w.Set(p, q, 0)
		w.Set(q, p, 0)
		return
	}

	// Phase that makes the pivot real: with d = g/|g|, the transformed pivot
	// element becomes |g|.
	phase := g / complex(ag, 0)

	// Real symmetric 2x2 rotation (Numerical Recipes convention).
	tau := (aqq - app) / (2 * ag)
	var t float64
	if tau >= 0 {
		t = 1 / (tau + math.Sqrt(1+tau*tau))
	} else {
		t = -1 / (-tau + math.Sqrt(1+tau*tau))
	}
	c := 1 / math.Sqrt(1+t*t)
	s := t * c

	// Full rotation U restricted to the (p,q) plane:
	//   U[p][p] = c        U[p][q] = s
	//   U[q][p] = -s·conj(phase)   U[q][q] = c·conj(phase)
	// so that Uᴴ·A·U zeroes the (p,q) entry.
	upp := complex(c, 0)
	upq := complex(s, 0)
	uqp := complex(-s, 0) * cmplx.Conj(phase)
	uqq := complex(c, 0) * cmplx.Conj(phase)

	n := w.rows
	// Right multiplication: columns p and q of W.
	for i := 0; i < n; i++ {
		wip := w.At(i, p)
		wiq := w.At(i, q)
		w.Set(i, p, wip*upp+wiq*uqp)
		w.Set(i, q, wip*upq+wiq*uqq)
	}
	// Left multiplication by Uᴴ: rows p and q of W.
	for j := 0; j < n; j++ {
		wpj := w.At(p, j)
		wqj := w.At(q, j)
		w.Set(p, j, cmplx.Conj(upp)*wpj+cmplx.Conj(uqp)*wqj)
		w.Set(q, j, cmplx.Conj(upq)*wpj+cmplx.Conj(uqq)*wqj)
	}
	// Clean the annihilated pair and enforce real diagonal against round-off.
	w.Set(p, q, 0)
	w.Set(q, p, 0)
	w.Set(p, p, complex(real(w.At(p, p)), 0))
	w.Set(q, q, complex(real(w.At(q, q)), 0))

	// Accumulate eigenvectors: V ← V·U.
	for i := 0; i < n; i++ {
		vip := v.At(i, p)
		viq := v.At(i, q)
		v.Set(i, p, vip*upp+viq*uqp)
		v.Set(i, q, vip*upq+viq*uqq)
	}
}

// sortEigen sorts eigenvalues ascending and permutes the eigenvector columns
// accordingly.
func sortEigen(values []float64, vectors *Matrix) {
	n := len(values)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })

	sortedVals := make([]float64, n)
	perm := New(vectors.rows, n)
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
		for i := 0; i < vectors.rows; i++ {
			perm.Set(i, newCol, vectors.At(i, oldCol))
		}
	}
	copy(values, sortedVals)
	copy(vectors.data, perm.data)
}

// Reconstruct rebuilds V · diag(Values) · Vᴴ from the decomposition. It is
// primarily used by tests and by consumers that clamp eigenvalues.
func (e *Eigen) Reconstruct() *Matrix {
	return ReconstructHermitian(e.Vectors, e.Values)
}

// ReconstructHermitian returns V · diag(values) · Vᴴ.
func ReconstructHermitian(v *Matrix, values []float64) *Matrix {
	n := v.rows
	out := New(n, n)
	for k := 0; k < len(values); k++ {
		lambda := values[k]
		if lambda == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			vik := v.At(i, k)
			if vik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out.Set(i, j, out.At(i, j)+complex(lambda, 0)*vik*cmplx.Conj(v.At(j, k)))
			}
		}
	}
	out.Hermitize()
	return out
}

// EigenColoring returns the coloring matrix L = V·sqrt(diag(values)) of the
// Hermitian matrix V·diag(values)·Vᴴ, so that L·Lᴴ reproduces it. The values
// must be non-negative.
func EigenColoring(v *Matrix, values []float64) *Matrix {
	l := New(v.rows, len(values))
	for j, lambda := range values {
		s := complex(math.Sqrt(lambda), 0)
		for i := 0; i < v.rows; i++ {
			l.Set(i, j, v.At(i, j)*s)
		}
	}
	return l
}

// MinEigenvalue returns the smallest eigenvalue of a Hermitian matrix. It is
// a convenience for definiteness checks.
func MinEigenvalue(a *Matrix) (float64, error) {
	e, err := EigenHermitian(a)
	if err != nil {
		return 0, err
	}
	return e.Values[0], nil
}

// IsPositiveSemiDefinite reports whether the Hermitian matrix a has all
// eigenvalues >= -tol (tol absorbs round-off in eigenvalues that are exactly
// zero in exact arithmetic).
func IsPositiveSemiDefinite(a *Matrix, tol float64) (bool, error) {
	min, err := MinEigenvalue(a)
	if err != nil {
		return false, err
	}
	return min >= -tol, nil
}

// IsPositiveDefinite reports whether the Hermitian matrix a has all
// eigenvalues > tol.
func IsPositiveDefinite(a *Matrix, tol float64) (bool, error) {
	min, err := MinEigenvalue(a)
	if err != nil {
		return false, err
	}
	return min > tol, nil
}
