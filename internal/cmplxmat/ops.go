package cmplxmat

import (
	"fmt"
	"math/cmplx"
)

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
