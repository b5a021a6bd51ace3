package cmplxmat

import (
	"fmt"
	"math/cmplx"
)

// Add returns a + b.
func Add(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("cmplxmat: Add %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimension)
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out, nil
}

// Sub returns a - b.
func Sub(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("cmplxmat: Sub %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimension)
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out, nil
}

// Scale returns s * a.
func Scale(s complex128, a *Matrix) *Matrix {
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = s * a.data[i]
	}
	return out
}

// Mul returns the matrix product a * b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("cmplxmat: Mul %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimension)
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MustMul is Mul but panics on dimension mismatch.
func MustMul(a, b *Matrix) *Matrix {
	out, err := Mul(a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// MulVec returns the matrix-vector product a * x.
func MulVec(a *Matrix, x []complex128) ([]complex128, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("cmplxmat: MulVec %dx%d with vector of length %d: %w", a.rows, a.cols, len(x), ErrDimension)
	}
	out := make([]complex128, a.rows)
	for i := 0; i < a.rows; i++ {
		var sum complex128
		row := a.data[i*a.cols : (i+1)*a.cols]
		for j, v := range row {
			sum += v * x[j]
		}
		out[i] = sum
	}
	return out, nil
}

// MustMulVec is MulVec but panics on dimension mismatch.
func MustMulVec(a *Matrix, x []complex128) []complex128 {
	out, err := MulVec(a, x)
	if err != nil {
		panic(err)
	}
	return out
}

// ConjTranspose returns the Hermitian (conjugate) transpose Aᴴ.
func ConjTranspose(a *Matrix) *Matrix {
	out := New(a.cols, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < a.cols; j++ {
			out.Set(j, i, cmplx.Conj(a.At(i, j)))
		}
	}
	return out
}

// Trace returns the sum of the diagonal entries of a square matrix.
func Trace(a *Matrix) complex128 {
	if !a.IsSquare() {
		panic("cmplxmat: Trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < a.rows; i++ {
		t += a.At(i, i)
	}
	return t
}

// OuterProduct returns the rank-one matrix x * yᴴ.
func OuterProduct(x, y []complex128) *Matrix {
	out := New(len(x), len(y))
	for i, xv := range x {
		for j, yv := range y {
			out.Set(i, j, xv*cmplx.Conj(yv))
		}
	}
	return out
}

// Gram returns A * Aᴴ, which is Hermitian positive semi-definite for any A.
func Gram(a *Matrix) *Matrix {
	out := New(a.rows, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := i; j < a.rows; j++ {
			var s complex128
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * cmplx.Conj(a.At(j, k))
			}
			out.Set(i, j, s)
			if i != j {
				out.Set(j, i, cmplx.Conj(s))
			} else {
				out.Set(i, i, complex(real(s), 0))
			}
		}
	}
	return out
}
