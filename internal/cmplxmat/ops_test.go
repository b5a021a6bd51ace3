package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
)

func TestAddSub(t *testing.T) {
	a := MustFromRows([][]complex128{{1, 2}, {3, 4}})
	b := MustFromRows([][]complex128{{1i, -2}, {0, 1}})

	sum, err := add(a, b)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if sum.At(0, 0) != 1+1i || sum.At(0, 1) != 0 || sum.At(1, 1) != 5 {
		t.Errorf("Add wrong result: %v", sum)
	}

	diff, err := Sub(a, b)
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if diff.At(0, 0) != 1-1i || diff.At(0, 1) != 4 {
		t.Errorf("Sub wrong result: %v", diff)
	}

	if _, err := add(a, New(3, 2)); err == nil {
		t.Errorf("Add of mismatched shapes did not error")
	}
	if _, err := Sub(a, New(2, 3)); err == nil {
		t.Errorf("Sub of mismatched shapes did not error")
	}
}

func TestScale(t *testing.T) {
	a := MustFromRows([][]complex128{{1, 2i}})
	s := Scale(2i, a)
	if s.At(0, 0) != 2i || s.At(0, 1) != -4 {
		t.Errorf("Scale wrong result: %v", s)
	}
}

func TestMul(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1, 2},
		{3, 4},
	})
	b := MustFromRows([][]complex128{
		{0, 1},
		{1, 0},
	})
	p := MustMul(a, b)
	want := MustFromRows([][]complex128{
		{2, 1},
		{4, 3},
	})
	if !equalApprox(p, want, 0) {
		t.Errorf("Mul = %v, want %v", p, want)
	}

	if _, err := Mul(a, New(3, 3)); err == nil {
		t.Errorf("Mul with incompatible inner dims did not error")
	}
}

func TestMulIdentity(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1 + 1i, 2 - 1i, 0.5},
		{3, 4i, -1},
		{0, 1, 2 + 2i},
	})
	id := Identity(3)
	left := MustMul(id, a)
	right := MustMul(a, id)
	if !equalApprox(left, a, 1e-15) || !equalApprox(right, a, 1e-15) {
		t.Errorf("identity multiplication changed the matrix")
	}
}

func TestMulVec(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1, 2},
		{3i, 0},
	})
	x := []complex128{1, 1i}
	y := mustMulVec(a, x)
	if y[0] != 1+2i || y[1] != 3i {
		t.Errorf("MulVec = %v", y)
	}
	if _, err := mulVec(a, []complex128{1}); err == nil {
		t.Errorf("MulVec with wrong length did not error")
	}
}

func TestConjTranspose(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1 + 1i, 2},
		{3, 4 - 2i},
		{5i, 6},
	})
	h := ConjTranspose(a)
	if h.Rows() != 2 || h.Cols() != 3 {
		t.Fatalf("ConjTranspose dims wrong: %dx%d", h.Rows(), h.Cols())
	}
	if h.At(0, 2) != -5i || h.At(1, 1) != 4+2i {
		t.Errorf("ConjTranspose wrong entries")
	}
}

func TestTrace(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1, 9},
		{9, 2 + 3i},
	})
	if got := trace(a); got != 3+3i {
		t.Errorf("Trace = %v, want (3+3i)", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("Trace of rectangular matrix did not panic")
		}
	}()
	trace(New(2, 3))
}

func TestOuterProduct(t *testing.T) {
	x := []complex128{1, 2i}
	y := []complex128{1 + 1i, 3}
	op := outerProduct(x, y)
	// op[i][j] = x[i]*conj(y[j])
	if op.At(0, 0) != 1*(1-1i) || op.At(1, 1) != 2i*3 {
		t.Errorf("OuterProduct wrong: %v", op)
	}
}

func TestGramIsHermitianPSD(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1 + 2i, 0.5, -1},
		{0, 3i, 2 - 1i},
	})
	g := gram(a)
	if !g.IsHermitian(1e-12) {
		t.Fatalf("Gram matrix is not Hermitian")
	}
	ok, err := isPositiveSemiDefinite(g, 1e-10)
	if err != nil {
		t.Fatalf("IsPositiveSemiDefinite: %v", err)
	}
	if !ok {
		t.Errorf("Gram matrix reported as not PSD")
	}
	// Gram must equal A·Aᴴ.
	want := MustMul(a, ConjTranspose(a))
	if !equalApprox(g, want, 1e-12) {
		t.Errorf("Gram != A·Aᴴ")
	}
}

func TestNorms(t *testing.T) {
	a := MustFromRows([][]complex128{
		{3, 4i},
		{0, 0},
	})
	if got := FrobeniusNorm(a); math.Abs(got-5) > 1e-12 {
		t.Errorf("FrobeniusNorm = %g, want 5", got)
	}
	if got := MaxAbs(a); math.Abs(got-4) > 1e-12 {
		t.Errorf("MaxAbs = %g, want 4", got)
	}
	if got := OffDiagonalNorm(a); math.Abs(got-4) > 1e-12 {
		t.Errorf("OffDiagonalNorm = %g, want 4", got)
	}
	b := MustFromRows([][]complex128{
		{3, 0},
		{0, 0},
	})
	if got := FrobeniusDistance(a, b); math.Abs(got-4) > 1e-12 {
		t.Errorf("FrobeniusDistance = %g, want 4", got)
	}
}

// add returns a + b.
func add(a, b *Matrix) (*Matrix, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("cmplxmat: add %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimension)
	}
	out := New(a.rows, a.cols)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out, nil
}

// mulVec returns the matrix-vector product a * x.
func mulVec(a *Matrix, x []complex128) ([]complex128, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("cmplxmat: mulVec %dx%d with vector of length %d: %w", a.rows, a.cols, len(x), ErrDimension)
	}
	out := make([]complex128, a.rows)
	for i := range out {
		for j, v := range a.data[i*a.cols : (i+1)*a.cols] {
			out[i] += v * x[j]
		}
	}
	return out, nil
}

// mustMulVec is mulVec but panics on dimension mismatch.
func mustMulVec(a *Matrix, x []complex128) []complex128 {
	out, err := mulVec(a, x)
	if err != nil {
		panic(err)
	}
	return out
}

// trace returns the sum of the diagonal entries of a square matrix.
func trace(a *Matrix) complex128 {
	if !a.IsSquare() {
		panic("cmplxmat: trace of non-square matrix")
	}
	var t complex128
	for i := 0; i < a.rows; i++ {
		t += a.At(i, i)
	}
	return t
}

// outerProduct returns the rank-one matrix x * yᴴ.
func outerProduct(x, y []complex128) *Matrix {
	out := New(len(x), len(y))
	for i, xv := range x {
		for j, yv := range y {
			out.Set(i, j, xv*cmplx.Conj(yv))
		}
	}
	return out
}

// gram returns A * Aᴴ, which is Hermitian positive semi-definite for any A.
func gram(a *Matrix) *Matrix {
	out := New(a.rows, a.rows)
	for i := 0; i < a.rows; i++ {
		for j := i; j < a.rows; j++ {
			var s complex128
			for k := 0; k < a.cols; k++ {
				s += a.At(i, k) * cmplx.Conj(a.At(j, k))
			}
			out.Set(i, j, s)
			out.Set(j, i, cmplx.Conj(s))
		}
		out.Set(i, i, complex(real(out.At(i, i)), 0))
	}
	return out
}
