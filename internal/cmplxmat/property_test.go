package cmplxmat

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// genHermitian draws a random Hermitian matrix of size 1..maxN with entries
// bounded so Frobenius norms stay well-scaled for the property tests.
func genHermitian(rng *rand.Rand, maxN int) *Matrix {
	n := 1 + rng.Intn(maxN)
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(4*rng.Float64()-2, 0))
		for j := i + 1; j < n; j++ {
			v := complex(2*rng.Float64()-1, 2*rng.Float64()-1)
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestPropertyEigenReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genHermitian(rng, 9)
		e, err := EigenHermitian(a)
		if err != nil {
			return false
		}
		rec := e.Reconstruct()
		return FrobeniusDistance(rec, a) <= 1e-9*math.Max(FrobeniusNorm(a), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyEigenvectorsUnitary(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genHermitian(rng, 8)
		e, err := EigenHermitian(a)
		if err != nil {
			return false
		}
		n := a.Rows()
		vhv := MustMul(ConjTranspose(e.Vectors), e.Vectors)
		return EqualApprox(vhv, Identity(n), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGramAlwaysPSD(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(6)
		cols := 1 + rng.Intn(6)
		a := New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, complex(2*rng.Float64()-1, 2*rng.Float64()-1))
			}
		}
		g := Gram(a)
		ok, err := IsPositiveSemiDefinite(g, 1e-9)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCholeskyOfRidgedGram(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(2*rng.Float64()-1, 2*rng.Float64()-1))
			}
		}
		g := Gram(a)
		pd, err := Add(g, Scale(complex(0.25, 0), Identity(n)))
		if err != nil {
			return false
		}
		pd.Hermitize()
		l, err := Cholesky(pd)
		if err != nil {
			return false
		}
		rec := MustMul(l, ConjTranspose(l))
		return FrobeniusDistance(rec, pd) <= 1e-9*math.Max(FrobeniusNorm(pd), 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyHermitizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := New(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, complex(2*rng.Float64()-1, 2*rng.Float64()-1))
			}
		}
		a.Hermitize()
		b := a.Clone()
		b.Hermitize()
		return EqualApprox(a, b, 0) && a.IsHermitian(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMulAssociativeWithVector(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		a := genHermitian(rng, 6)
		n = a.Rows()
		b := genHermitian(rng, 6)
		// Force same dims.
		if b.Rows() != n {
			bb := New(n, n)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					bb.Set(i, j, complex(rng.Float64(), rng.Float64()))
				}
			}
			b = bb
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.Float64(), rng.Float64())
		}
		// (A·B)·x == A·(B·x)
		left := MustMulVec(MustMul(a, b), x)
		right := MustMulVec(a, MustMulVec(b, x))
		for i := range left {
			if cmplx.Abs(left[i]-right[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
