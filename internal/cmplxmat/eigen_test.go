package cmplxmat

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// randomHermitian builds a random Hermitian matrix with entries of order one.
func randomHermitian(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(rng.NormFloat64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

// randomPSD builds a random Hermitian positive semi-definite matrix A·Aᴴ.
func randomPSD(rng *rand.Rand, n int) *Matrix {
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return gram(a)
}

func TestEigenHermitianDiagonal(t *testing.T) {
	d := diagReal([]float64{3, -1, 2})
	e, err := EigenHermitian(d)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	want := []float64{-1, 2, 3}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-12 {
			t.Errorf("eigenvalue[%d] = %g, want %g", i, e.Values[i], w)
		}
	}
}

func TestEigenHermitianKnown2x2(t *testing.T) {
	// [[2, 1+i], [1-i, 3]] has eigenvalues (5 ± sqrt(9))/2 = {1, 4}.
	a := MustFromRows([][]complex128{
		{2, 1 + 1i},
		{1 - 1i, 3},
	})
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	if math.Abs(e.Values[0]-1) > 1e-10 || math.Abs(e.Values[1]-4) > 1e-10 {
		t.Errorf("eigenvalues = %v, want [1 4]", e.Values)
	}
}

func TestEigenHermitianReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 5, 8, 16, 32} {
		a := randomHermitian(rng, n)
		e, err := EigenHermitian(a)
		if err != nil {
			t.Fatalf("n=%d EigenHermitian: %v", n, err)
		}
		rec := ReconstructHermitian(e.Vectors, e.Values)
		scale := math.Max(FrobeniusNorm(a), 1)
		if d := FrobeniusDistance(rec, a); d > 1e-10*scale {
			t.Errorf("n=%d reconstruction error %.3e too large", n, d)
		}
	}
}

func TestEigenHermitianOrthonormalVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomHermitian(rng, 10)
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	vhv := MustMul(ConjTranspose(e.Vectors), e.Vectors)
	if !equalApprox(vhv, Identity(10), 1e-10) {
		t.Errorf("eigenvector matrix is not unitary: VᴴV deviates from I by %.3e",
			FrobeniusDistance(vhv, Identity(10)))
	}
}

func TestEigenHermitianSortedAscending(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomHermitian(rng, 12)
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	for i := 1; i < len(e.Values); i++ {
		if e.Values[i] < e.Values[i-1] {
			t.Fatalf("eigenvalues not sorted ascending: %v", e.Values)
		}
	}
}

func TestEigenHermitianTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomHermitian(rng, 6)
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	var sum float64
	for _, v := range e.Values {
		sum += v
	}
	if math.Abs(sum-real(trace(a))) > 1e-9 {
		t.Errorf("sum of eigenvalues %g != trace %g", sum, real(trace(a)))
	}
}

func TestEigenHermitianRejectsNonHermitian(t *testing.T) {
	a := MustFromRows([][]complex128{
		{1, 2},
		{3, 4},
	})
	if _, err := EigenHermitian(a); !errors.Is(err, ErrNotHermitian) {
		t.Errorf("EigenHermitian(non-Hermitian) error = %v, want ErrNotHermitian", err)
	}
	if _, err := EigenHermitian(New(2, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("EigenHermitian(rectangular) error = %v, want ErrDimension", err)
	}
}

func TestEigenHermitianZeroMatrix(t *testing.T) {
	e, err := EigenHermitian(New(4, 4))
	if err != nil {
		t.Fatalf("EigenHermitian(zero): %v", err)
	}
	for _, v := range e.Values {
		if v != 0 {
			t.Errorf("zero matrix eigenvalue %g != 0", v)
		}
	}
}

// TestEigenHermitianAtScaleWindowEdges: at the edges of the covariance scale
// window the constructors admit (max |K_ij| from 1e-100 to 1e100),
// [[1, 2], [2, 1]]·s decomposes to −s and 3s.
func TestEigenHermitianAtScaleWindowEdges(t *testing.T) {
	for _, maxEntry := range []float64{1e-100, 1e100} {
		s := maxEntry / 2
		a := MustFromRows([][]complex128{
			{complex(s, 0), complex(2*s, 0)},
			{complex(2*s, 0), complex(s, 0)},
		})
		e, err := EigenHermitian(a)
		if err != nil {
			t.Fatalf("max |a_ij| = %g: EigenHermitian: %v", maxEntry, err)
		}
		for i, want := range []float64{-s, 3 * s} {
			if math.Abs(e.Values[i]-want) > 1e-12*math.Abs(want) {
				t.Errorf("max |a_ij| = %g: eigenvalue[%d] = %g, want %g", maxEntry, i, e.Values[i], want)
			}
		}
	}
}

// TestEigenHermitianScaleInvariant: EigenHermitian(2^k·A) returns the
// eigenvalues of A times 2^k and the eigenvectors of A, bit for bit, also
// where the Frobenius norm of 2^k·A under- or overflows (|k| = 600).
func TestEigenHermitianScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{2, 5, 16, 32} {
		a := randomHermitian(rng, n)
		want, err := EigenHermitian(a)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		for _, k := range []int{-600, -300, 300, 600} {
			scaled := New(n, n)
			for i, x := range a.data {
				scaled.data[i] = complex(math.Ldexp(real(x), k), math.Ldexp(imag(x), k))
			}
			got, err := EigenHermitian(scaled)
			if err != nil {
				t.Fatalf("N=%d k=%d: %v", n, k, err)
			}
			for i, v := range want.Values {
				if w := math.Ldexp(v, k); math.Float64bits(got.Values[i]) != math.Float64bits(w) {
					t.Errorf("N=%d k=%d: eigenvalue[%d] = %g, want %g", n, k, i, got.Values[i], w)
				}
			}
			for i, v := range want.Vectors.data {
				g := got.Vectors.data[i]
				if math.Float64bits(real(g)) != math.Float64bits(real(v)) || math.Float64bits(imag(g)) != math.Float64bits(imag(v)) {
					t.Errorf("N=%d k=%d: eigenvector entry %d = %v, want %v", n, k, i, g, v)
					break
				}
			}
		}
	}
}

func TestEigenHermitianRepeatedEigenvalues(t *testing.T) {
	// 3x3 matrix with a doubly degenerate eigenvalue: I + rank-one update.
	v := []complex128{complex(1/math.Sqrt(2), 0), complex(0, 1/math.Sqrt(2)), 0}
	update := outerProduct(v, v)
	a, err := add(Identity(3), Scale(2, update))
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	a.Hermitize()
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	want := []float64{1, 1, 3}
	for i, w := range want {
		if math.Abs(e.Values[i]-w) > 1e-10 {
			t.Errorf("eigenvalue[%d] = %g, want %g", i, e.Values[i], w)
		}
	}
	rec := ReconstructHermitian(e.Vectors, e.Values)
	if d := FrobeniusDistance(rec, a); d > 1e-10 {
		t.Errorf("reconstruction error %.3e with repeated eigenvalues", d)
	}
}

func TestMinEigenvalueAndDefiniteness(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	psd := randomPSD(rng, 5)
	min, err := minEigenvalue(psd)
	if err != nil {
		t.Fatalf("MinEigenvalue: %v", err)
	}
	if min < -1e-9 {
		t.Errorf("PSD matrix has min eigenvalue %g", min)
	}
	ok, err := isPositiveSemiDefinite(psd, 1e-9)
	if err != nil || !ok {
		t.Errorf("isPositiveSemiDefinite(PSD) = %v, %v", ok, err)
	}

	indef := diagReal([]float64{1, -0.5, 2})
	ok, err = isPositiveSemiDefinite(indef, 1e-9)
	if err != nil {
		t.Fatalf("IsPositiveSemiDefinite: %v", err)
	}
	if ok {
		t.Errorf("indefinite matrix reported PSD")
	}
	pd, err := isPositiveDefinite(Identity(3), 1e-12)
	if err != nil || !pd {
		t.Errorf("isPositiveDefinite(I) = %v, %v", pd, err)
	}
	pd, err = isPositiveDefinite(diagReal([]float64{1, 0, 2}), 1e-12)
	if err != nil {
		t.Fatalf("IsPositiveDefinite: %v", err)
	}
	if pd {
		t.Errorf("singular PSD matrix reported positive definite")
	}
}

func TestReconstructHermitianSubset(t *testing.T) {
	// Clamping negative eigenvalues to zero through ReconstructHermitian must
	// produce a PSD matrix — this is the operation the core algorithm uses.
	a := diagReal([]float64{2, -1, 3})
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	clamped := make([]float64, len(e.Values))
	for i, v := range e.Values {
		if v > 0 {
			clamped[i] = v
		}
	}
	rec := ReconstructHermitian(e.Vectors, clamped)
	ok, err := isPositiveSemiDefinite(rec, 1e-10)
	if err != nil || !ok {
		t.Errorf("clamped reconstruction not PSD: %v %v", ok, err)
	}
	if math.Abs(real(rec.At(0, 0))-2) > 1e-10 || math.Abs(real(rec.At(2, 2))-3) > 1e-10 {
		t.Errorf("clamped reconstruction disturbed positive eigenvalues: %v", diagVals(rec))
	}
}

func TestEigenLargeMatrixAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("large eigendecomposition skipped in short mode")
	}
	rng := rand.New(rand.NewSource(23))
	a := randomHermitian(rng, 64)
	e, err := EigenHermitian(a)
	if err != nil {
		t.Fatalf("EigenHermitian(64): %v", err)
	}
	rec := ReconstructHermitian(e.Vectors, e.Values)
	if d := FrobeniusDistance(rec, a); d > 1e-9*FrobeniusNorm(a) {
		t.Errorf("64x64 reconstruction error %.3e too large", d)
	}
}

// minEigenvalue returns the smallest eigenvalue of a Hermitian matrix.
func minEigenvalue(a *Matrix) (float64, error) {
	e, err := EigenHermitian(a)
	if err != nil {
		return 0, err
	}
	return e.Values[0], nil
}

// isPositiveSemiDefinite reports whether the Hermitian matrix a has all
// eigenvalues >= -tol.
func isPositiveSemiDefinite(a *Matrix, tol float64) (bool, error) {
	min, err := minEigenvalue(a)
	return err == nil && min >= -tol, err
}

// isPositiveDefinite reports whether the Hermitian matrix a has all
// eigenvalues > tol.
func isPositiveDefinite(a *Matrix, tol float64) (bool, error) {
	min, err := minEigenvalue(a)
	return err == nil && min > tol, err
}
