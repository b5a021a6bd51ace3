package core

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
)

// indefiniteCovariance returns a Hermitian matrix with unit diagonal that is
// NOT positive semi-definite: correlations of 0.9 between all three distinct
// pairs with alternating signs force a negative eigenvalue. This is the
// situation where the Cholesky-based conventional methods abort.
func indefiniteCovariance() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.9, -0.9},
		{0.9, 1, 0.9},
		{-0.9, 0.9, 1},
	})
}

// randomHermitianCore builds a random Hermitian matrix for property tests.
func randomHermitianCore(rng *rand.Rand, n int) *cmplxmat.Matrix {
	m := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(2*rng.Float64(), 0))
		for j := i + 1; j < n; j++ {
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			m.Set(i, j, v)
			m.Set(j, i, cmplx.Conj(v))
		}
	}
	return m
}

func TestForcePSDKeepsPSDMatrixUnchanged(t *testing.T) {
	k := chanspec.Eq22Covariance()
	f, err := ForcePSD(k)
	if err != nil {
		t.Fatalf("ForcePSD: %v", err)
	}
	if f.NumClamped != 0 {
		t.Errorf("Eq. (22) matrix reported as not PSD (clamped %d eigenvalues)", f.NumClamped)
	}
	if !cmplxmat.EqualApprox(f.Forced, k, 1e-12) {
		t.Errorf("PSD matrix was modified by forcing")
	}
	if f.FrobeniusError > 1e-12 {
		t.Errorf("FrobeniusError = %g for a PSD matrix", f.FrobeniusError)
	}
}

func TestForcePSDClampsNegativeEigenvalues(t *testing.T) {
	k := indefiniteCovariance()
	f, err := ForcePSD(k)
	if err != nil {
		t.Fatalf("ForcePSD: %v", err)
	}
	if f.NumClamped == 0 {
		t.Fatalf("indefinite matrix reported as PSD")
	}
	// Every clamped eigenvalue must be exactly zero, the rest preserved.
	for i, v := range f.ClampedEigenvalues {
		if v < 0 {
			t.Errorf("clamped eigenvalue %d is negative: %g", i, v)
		}
		if f.Eigenvalues[i] >= 0 && v != f.Eigenvalues[i] {
			t.Errorf("positive eigenvalue %d was altered: %g -> %g", i, f.Eigenvalues[i], v)
		}
		if f.Eigenvalues[i] < 0 && v != 0 {
			t.Errorf("negative eigenvalue %d clamped to %g, want exactly 0", i, v)
		}
	}
	// The forced matrix must be PSD.
	ok, err := cmplxmat.IsPositiveSemiDefinite(f.Forced, 1e-9)
	if err != nil || !ok {
		t.Errorf("forced matrix is not PSD: %v %v", ok, err)
	}
	if f.FrobeniusError <= 0 {
		t.Errorf("FrobeniusError = %g, want > 0 for an indefinite input", f.FrobeniusError)
	}
}

func TestForcePSDZeroClampBeatsEpsilonClamp(t *testing.T) {
	// Section 4.2: the zero clamp approximates K at least as well (Frobenius)
	// as the ε clamp of [6], for any ε > 0.
	k := indefiniteCovariance()
	f, err := ForcePSD(k)
	if err != nil {
		t.Fatalf("ForcePSD: %v", err)
	}
	for _, eps := range []float64{1e-6, 1e-3, 1e-2, 0.1} {
		epsClamped := make([]float64, len(f.Eigenvalues))
		for i, v := range f.Eigenvalues {
			if v > 0 {
				epsClamped[i] = v
			} else {
				epsClamped[i] = eps
			}
		}
		epsMatrix := cmplxmat.ReconstructHermitian(f.Eigenvectors, epsClamped)
		epsErr := cmplxmat.FrobeniusDistance(k, epsMatrix)
		if f.FrobeniusError > epsErr+1e-12 {
			t.Errorf("zero-clamp error %g exceeds ε-clamp error %g at ε=%g", f.FrobeniusError, epsErr, eps)
		}
	}
}

func TestForcePSDIdempotent(t *testing.T) {
	k := indefiniteCovariance()
	f1, err := ForcePSD(k)
	if err != nil {
		t.Fatalf("ForcePSD: %v", err)
	}
	f2, err := ForcePSD(f1.Forced)
	if err != nil {
		t.Fatalf("ForcePSD(forced): %v", err)
	}
	// Eigenvalues clamped on the first pass are exactly zero in exact
	// arithmetic; round-off can make them reappear as tiny negatives, so a
	// second pass may "clamp" again — but only by a negligible amount and
	// without moving the matrix.
	if f2.FrobeniusError > 1e-10 {
		t.Errorf("second forcing pass introduced error %g", f2.FrobeniusError)
	}
	if d := cmplxmat.FrobeniusDistance(f1.Forced, f2.Forced); d > 1e-9 {
		t.Errorf("forcing is not idempotent: second pass moved the matrix by %g", d)
	}
}

func TestForcePSDErrors(t *testing.T) {
	if _, err := ForcePSD(cmplxmat.New(2, 3)); !errors.Is(err, ErrBadInput) {
		t.Errorf("rectangular input error = %v, want ErrBadInput", err)
	}
	nonHerm := cmplxmat.MustFromRows([][]complex128{{1, 2}, {3, 4}})
	if _, err := ForcePSD(nonHerm); err == nil {
		t.Errorf("non-Hermitian input did not error")
	}
}

func TestForcePSDRankDeficientUnchangedEigenvalues(t *testing.T) {
	// A rank-one PSD matrix (fully correlated envelopes) must pass through
	// with zero eigenvalues untouched — this is the case Cholesky cannot
	// handle but eigen coloring can.
	v := []complex128{1, 1i, 0.5 + 0.5i}
	k := cmplxmat.OuterProduct(v, v)
	k.Hermitize()
	f, err := ForcePSD(k)
	if err != nil {
		t.Fatalf("ForcePSD: %v", err)
	}
	if f.NumClamped != 0 {
		// Eigenvalues that are exactly zero (or negative only through
		// round-off) may be clamped; what matters is the result is unchanged.
		if f.FrobeniusError > 1e-10 {
			t.Errorf("rank-deficient PSD matrix distorted by %g", f.FrobeniusError)
		}
	}
	if d := cmplxmat.FrobeniusDistance(f.Forced, k); d > 1e-10 {
		t.Errorf("rank-deficient PSD matrix changed by %g", d)
	}
}

func TestPropertyForcedMatrixAlwaysPSDAndCloser(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		k := randomHermitianCore(rng, n)
		forced, err := ForcePSD(k)
		if err != nil {
			return false
		}
		ok, err := cmplxmat.IsPositiveSemiDefinite(forced.Forced, 1e-8)
		if err != nil || !ok {
			return false
		}
		// The forcing error equals the norm of the clamped (negative)
		// eigenvalues: sqrt(Σ λ_j² over clamped j).
		var want float64
		for i, v := range forced.Eigenvalues {
			if forced.ClampedEigenvalues[i] == 0 && v < 0 {
				want += v * v
			}
		}
		return math.Abs(forced.FrobeniusError-math.Sqrt(want)) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
