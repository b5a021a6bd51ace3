package cmplxmat

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func TestCholeskyIdentity(t *testing.T) {
	l, err := Cholesky(Identity(4))
	if err != nil {
		t.Fatalf("Cholesky(I): %v", err)
	}
	if !equalApprox(l, Identity(4), 1e-14) {
		t.Errorf("Cholesky(I) != I")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = L·Lᴴ with a hand-picked complex lower-triangular L.
	l0 := MustFromRows([][]complex128{
		{2, 0, 0},
		{1 - 1i, 1.5, 0},
		{0.5i, -0.25 + 0.75i, 1},
	})
	a := MustMul(l0, ConjTranspose(l0))
	a.Hermitize()

	l, err := Cholesky(a)
	if err != nil {
		t.Fatalf("Cholesky: %v", err)
	}
	if !equalApprox(l, l0, 1e-12) {
		t.Errorf("Cholesky factor mismatch:\ngot\n%v\nwant\n%v", l, l0)
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16} {
		// Positive definite: Gram of a random square matrix plus a small ridge.
		g := randomPSD(rng, n)
		a, err := add(g, Scale(complex(0.1, 0), Identity(n)))
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		a.Hermitize()
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d Cholesky: %v", n, err)
		}
		rec := MustMul(l, ConjTranspose(l))
		if d := FrobeniusDistance(rec, a); d > 1e-10*math.Max(FrobeniusNorm(a), 1) {
			t.Errorf("n=%d L·Lᴴ differs from A by %.3e", n, d)
		}
		if !lowerTriangular(l, 1e-14) {
			t.Errorf("n=%d Cholesky factor is not lower triangular", n)
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	indef := diagReal([]float64{1, -1, 2})
	if _, err := Cholesky(indef); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("Cholesky(indefinite) error = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRejectsSemiDefinite(t *testing.T) {
	// Rank-deficient PSD matrix: outer product of a single vector.
	v := []complex128{1, 1i, 0.5}
	a := outerProduct(v, v)
	a.Hermitize()
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Errorf("Cholesky(rank-1 PSD) error = %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyRejectsNonHermitianAndRectangular(t *testing.T) {
	if _, err := Cholesky(MustFromRows([][]complex128{{1, 2}, {3, 4}})); !errors.Is(err, ErrNotHermitian) {
		t.Errorf("Cholesky(non-Hermitian) error = %v, want ErrNotHermitian", err)
	}
	if _, err := Cholesky(New(2, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("Cholesky(rectangular) error = %v, want ErrDimension", err)
	}
}

// lowerTriangular reports whether m is lower triangular within tol.
func lowerTriangular(m *Matrix, tol float64) bool {
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if cmplx.Abs(m.At(i, j)) > tol {
				return false
			}
		}
	}
	return true
}
