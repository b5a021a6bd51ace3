package core

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
)

func TestColoringMatrixReconstructsPSDCovariance(t *testing.T) {
	k := cmplxmat.MustFromRows([][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	})
	l, f, err := ColoringFromCovariance(k)
	if err != nil {
		t.Fatalf("ColoringFromCovariance: %v", err)
	}
	if d := verifyColoring(l, f); d > 1e-10 {
		t.Errorf("L·Lᴴ differs from K̄ by %g", d)
	}
	// For a PSD input, L·Lᴴ must equal the original K as well.
	rec := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
	if d := cmplxmat.FrobeniusDistance(rec, k); d > 1e-10 {
		t.Errorf("L·Lᴴ differs from the original PSD K by %g", d)
	}
}

func TestColoringMatrixHandlesIndefiniteCovariance(t *testing.T) {
	// The whole point of the eigen-coloring route: indefinite matrices, which
	// make Cholesky fail outright, still yield a usable coloring matrix whose
	// Gram matrix equals the forced PSD approximation.
	k := indefiniteCovariance()
	if _, err := cmplxmat.Cholesky(k); err == nil {
		t.Fatalf("test matrix unexpectedly accepted by Cholesky; pick a harder case")
	}
	l, f, err := ColoringFromCovariance(k)
	if err != nil {
		t.Fatalf("ColoringFromCovariance: %v", err)
	}
	if d := verifyColoring(l, f); d > 1e-9 {
		t.Errorf("L·Lᴴ differs from forced K̄ by %g", d)
	}
	if f.NumClamped == 0 {
		t.Errorf("expected clamped eigenvalues for the indefinite input")
	}
}

func TestColoringMatrixHandlesRankDeficientCovariance(t *testing.T) {
	// Fully correlated pair: K = [[1,1],[1,1]] has a zero eigenvalue.
	k := cmplxmat.MustFromRows([][]complex128{
		{1, 1},
		{1, 1},
	})
	if _, err := cmplxmat.Cholesky(k); err == nil {
		t.Fatalf("rank-deficient matrix unexpectedly accepted by strict Cholesky")
	}
	l, f, err := ColoringFromCovariance(k)
	if err != nil {
		t.Fatalf("ColoringFromCovariance: %v", err)
	}
	if d := verifyColoring(l, f); d > 1e-10 {
		t.Errorf("L·Lᴴ differs from K̄ by %g", d)
	}
}

func TestColoringMatrixIsNotTriangular(t *testing.T) {
	// The paper notes the eigen coloring matrix is square, not lower
	// triangular like a Cholesky factor. Verify we indeed produce a full
	// (generally non-triangular) matrix for a generic covariance.
	k := chanspec.Eq22Covariance()
	l, _, err := ColoringFromCovariance(k)
	if err != nil {
		t.Fatalf("ColoringFromCovariance: %v", err)
	}
	var upper float64
	for i := 0; i < l.Rows(); i++ {
		for j := i + 1; j < l.Cols(); j++ {
			upper = max(upper, cmplx.Abs(l.At(i, j)))
		}
	}
	if upper <= 1e-9 {
		t.Errorf("eigen coloring matrix is unexpectedly lower triangular")
	}
}

func TestScaleColoring(t *testing.T) {
	k := cmplxmat.Identity(2)
	l, _, err := ColoringFromCovariance(k)
	if err != nil {
		t.Fatalf("ColoringFromCovariance: %v", err)
	}
	scaled, err := ScaleColoring(l, 4)
	if err != nil {
		t.Fatalf("ScaleColoring: %v", err)
	}
	// Scaling by σ²_g = 4 divides entries by 2.
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if math.Abs(real(scaled.At(i, j))-real(l.At(i, j))/2) > 1e-14 {
				t.Errorf("ScaleColoring entry (%d,%d) wrong", i, j)
			}
		}
	}
	if _, err := ScaleColoring(l, 0); err == nil {
		t.Errorf("ScaleColoring with zero variance did not error")
	}
	if _, err := ScaleColoring(l, -1); err == nil {
		t.Errorf("ScaleColoring with negative variance did not error")
	}
}

func TestPropertyColoringGramEqualsForced(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		k := randomHermitianCore(rng, n)
		l, forced, err := ColoringFromCovariance(k)
		if err != nil {
			return false
		}
		return verifyColoring(l, forced) <= 1e-8*math.Max(1, cmplxmat.FrobeniusNorm(forced.Forced))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// verifyColoring returns ‖L·Lᴴ − K̄‖_F, the defect of the coloring matrix
// against the forced covariance: the reconstruction oracle, which a correct
// decomposition keeps at round-off level.
func verifyColoring(l *cmplxmat.Matrix, f *ForcedPSD) float64 {
	return cmplxmat.FrobeniusDistance(cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l)), f.Forced)
}
