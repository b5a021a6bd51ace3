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
	v := Identity(n)
	if n == 1 {
		return &Eigen{Values: []float64{real(a.data[0])}, Vectors: v}, nil
	}

	// Iterate on w = 2^−e·A, whose largest entry magnitude lies in [0.5, 1).
	// Scaling by a power of two is exact, so the norms below stay in range
	// for every finite A, the rotations are those of A itself, and the
	// eigenvalues scale back exactly.
	_, e := math.Frexp(scale)
	w := New(n, n)
	for i, x := range a.data {
		w.data[i] = complex(math.Ldexp(real(x), -e), math.Ldexp(imag(x), -e))
	}
	w.Hermitize() // exact symmetry for the iteration

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
	// Quadratic convergence means falling short of the strict target by a
	// hair is still an excellent decomposition; a genuinely stuck iteration
	// is reported.
	if !converged && OffDiagonalNorm(w) > 1e-8*frob {
		return nil, ErrNoConvergence
	}

	values := make([]float64, n)
	for i := range values {
		values[i] = math.Ldexp(real(w.data[i*n+i]), e)
	}
	sortEigen(values, v)
	return &Eigen{Values: values, Vectors: v}, nil
}

// jacobiRotate annihilates w[p][q] (and by symmetry w[q][p]) with a unitary
// plane rotation, accumulating the rotation into v; w and v are n×n.
func jacobiRotate(w, v *Matrix, p, q int) {
	n := w.rows
	wd, vd := w.data, v.data
	pp, pq, qp, qq := p*n+p, p*n+q, q*n+p, q*n+q
	g := wd[pq]
	ag := cmplx.Abs(g)
	if ag == 0 {
		return
	}
	app := real(wd[pp])
	aqq := real(wd[qq])
	// Skip numerically negligible pivots: rotating on them only stirs
	// round-off noise.
	if ag <= 1e-300 || ag <= 1e-17*(math.Abs(app)+math.Abs(aqq)) {
		wd[pq] = 0
		wd[qp] = 0
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
	// The entries of Uᴴ the left multiplication applies.
	hpp, hpq, hqp, hqq := cmplx.Conj(upp), cmplx.Conj(upq), cmplx.Conj(uqp), cmplx.Conj(uqq)

	// Right multiplication: columns p and q of W.
	for i := 0; i < len(wd); i += n {
		wip := wd[i+p]
		wiq := wd[i+q]
		wd[i+p] = wip*upp + wiq*uqp
		wd[i+q] = wip*upq + wiq*uqq
	}
	// Left multiplication by Uᴴ: rows p and q of W.
	rowP := wd[p*n : p*n+n]
	rowQ := wd[q*n : q*n+n]
	for j, wpj := range rowP {
		wqj := rowQ[j]
		rowP[j] = hpp*wpj + hqp*wqj
		rowQ[j] = hpq*wpj + hqq*wqj
	}
	// Clean the annihilated pair and enforce real diagonal against round-off.
	wd[pq] = 0
	wd[qp] = 0
	wd[pp] = complex(real(wd[pp]), 0)
	wd[qq] = complex(real(wd[qq]), 0)

	// Accumulate eigenvectors: V ← V·U.
	for i := 0; i < len(vd); i += n {
		vip := vd[i+p]
		viq := vd[i+q]
		vd[i+p] = vip*upp + viq*uqp
		vd[i+q] = vip*upq + viq*uqq
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
	for newCol, oldCol := range idx {
		sortedVals[newCol] = values[oldCol]
	}
	copy(values, sortedVals)
	row := make([]complex128, n)
	for i := 0; i < len(vectors.data); i += n {
		for newCol, oldCol := range idx {
			row[newCol] = vectors.data[i+oldCol]
		}
		copy(vectors.data[i:i+n], row)
	}
}

// ReconstructHermitian returns V · diag(values) · Vᴴ.
func ReconstructHermitian(v *Matrix, values []float64) *Matrix {
	n, vc := v.rows, v.cols
	out := New(n, n)
	for k, lambda := range values {
		if lambda == 0 {
			continue
		}
		for i := 0; i < n; i++ {
			vik := v.data[i*vc+k]
			if vik == 0 {
				continue
			}
			lv := complex(lambda, 0) * vik
			row := out.data[i*n : i*n+n]
			for j := range row {
				row[j] += lv * cmplx.Conj(v.data[j*vc+k])
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
			l.data[i*l.cols+j] = v.data[i*v.cols+j] * s
		}
	}
	return l
}
