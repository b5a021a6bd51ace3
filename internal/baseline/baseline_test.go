package baseline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
)

// eq23 is the paper's spatial covariance matrix (positive definite, real).
func eq23() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.8123, 0.3730},
		{0.8123, 1, 0.8123},
		{0.3730, 0.8123, 1},
	})
}

// indefinite is a Hermitian unit-diagonal matrix that is not PSD.
func indefinite() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.9, -0.9},
		{0.9, 1, 0.9},
		{-0.9, 0.9, 1},
	})
}

// rankDeficient is PSD but singular (fully correlated pair).
func rankDeficient() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 1},
		{1, 1},
	})
}

// checkSampleCovariance draws snapshots through the core engine with a
// method's coloring and returns the worst absolute entry difference from the
// target.
func checkSampleCovariance(t *testing.T, l, target *cmplxmat.Matrix, draws int, seed int64) float64 {
	t.Helper()
	gen := newColoredGenerator(t, l, target, seed)
	samples := make([][]complex128, draws)
	for i := range samples {
		samples[i] = gen.Generate().Gaussian
	}
	return sampleCovarianceError(t, samples, target)
}

// coloring returns a method's coloring of k, failing the test on an error.
func coloring(t *testing.T, method string, k *cmplxmat.Matrix) *cmplxmat.Matrix {
	t.Helper()
	l, _, err := Coloring(method, k)
	if err != nil {
		t.Fatalf("Coloring(%s): %v", method, err)
	}
	return l
}

func TestCholeskyColoringOnPositiveDefinite(t *testing.T) {
	l := coloring(t, chanspec.MethodBeaulieuMerani, chanspec.Eq22Covariance())
	if d := checkSampleCovariance(t, l, chanspec.Eq22Covariance(), 80000, 1); d > 0.03 {
		t.Errorf("Cholesky coloring misses the target covariance by %g", d)
	}
}

func TestCholeskyColoringFailsOnIndefinite(t *testing.T) {
	if _, _, err := Coloring(chanspec.MethodBeaulieuMerani, indefinite()); !errors.Is(err, ErrSetupFailed) {
		t.Errorf("Coloring(indefinite) error = %v, want ErrSetupFailed", err)
	}
}

func TestCholeskyColoringFailsOnRankDeficient(t *testing.T) {
	if _, _, err := Coloring(chanspec.MethodBeaulieuMerani, rankDeficient()); !errors.Is(err, ErrSetupFailed) {
		t.Errorf("Coloring(rank-deficient) error = %v, want ErrSetupFailed", err)
	}
}

func TestNatarajanDiscardsImaginaryCovariances(t *testing.T) {
	// On the real Eq. (23) matrix the method matches the target; on the
	// complex Eq. (22) matrix it reproduces only the real parts — the bias
	// the paper criticizes.
	l := coloring(t, chanspec.MethodNatarajan, eq23())
	if d := checkSampleCovariance(t, l, eq23(), 80000, 2); d > 0.03 {
		t.Errorf("Natarajan coloring misses the real target by %g", d)
	}

	l = coloring(t, chanspec.MethodNatarajan, chanspec.Eq22Covariance())
	dTarget := checkSampleCovariance(t, l, chanspec.Eq22Covariance(), 80000, 3)
	if dTarget < 0.2 {
		t.Errorf("Natarajan coloring should miss the complex target badly, error is only %g", dTarget)
	}
	// But it should match the real part of the target.
	realPart := cmplxmat.New(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			realPart.Set(i, j, complex(real(chanspec.Eq22Covariance().At(i, j)), 0))
		}
	}
	if d := checkSampleCovariance(t, l, realPart, 80000, 4); d > 0.03 {
		t.Errorf("Natarajan coloring misses even the real part of the target by %g", d)
	}
}

func TestErtelReedPair(t *testing.T) {
	k := cmplxmat.MustFromRows([][]complex128{
		{2, 1.2},
		{1.2, 2},
	})
	l := coloring(t, chanspec.MethodErtelReed, k)
	if d := checkSampleCovariance(t, l, k, 100000, 5); d > 0.05 {
		t.Errorf("Ertel–Reed misses the target covariance by %g", d)
	}
}

func TestErtelReedPairRestrictions(t *testing.T) {
	if _, _, err := Coloring(chanspec.MethodErtelReed, chanspec.Eq22Covariance()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Coloring(N=3) error = %v, want ErrUnsupported", err)
	}
	unequal := cmplxmat.MustFromRows([][]complex128{
		{1, 0.5},
		{0.5, 2},
	})
	if _, _, err := Coloring(chanspec.MethodErtelReed, unequal); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Coloring(unequal powers) error = %v, want ErrUnsupported", err)
	}
	complexCorr := cmplxmat.MustFromRows([][]complex128{
		{1, 0.5 + 0.3i},
		{0.5 - 0.3i, 1},
	})
	if _, _, err := Coloring(chanspec.MethodErtelReed, complexCorr); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Coloring(complex correlation) error = %v, want ErrUnsupported", err)
	}
}

func TestSalzWintersRealOnEqualPowerPSD(t *testing.T) {
	l := coloring(t, chanspec.MethodSalzWinters, chanspec.Eq22Covariance())
	if d := checkSampleCovariance(t, l, chanspec.Eq22Covariance(), 80000, 6); d > 0.04 {
		t.Errorf("Salz–Winters misses the target covariance by %g", d)
	}
}

func TestSalzWintersRejectsUnequalPowers(t *testing.T) {
	unequal := cmplxmat.MustFromRows([][]complex128{
		{1, 0.2},
		{0.2, 3},
	})
	if _, _, err := Coloring(chanspec.MethodSalzWinters, unequal); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Coloring(unequal powers) error = %v, want ErrUnsupported", err)
	}
}

func TestSalzWintersRejectsIndefinite(t *testing.T) {
	if _, _, err := Coloring(chanspec.MethodSalzWinters, indefinite()); !errors.Is(err, ErrSetupFailed) {
		t.Errorf("Coloring(indefinite) error = %v, want ErrSetupFailed", err)
	}
}

func TestEpsilonEigenOnPositiveDefinite(t *testing.T) {
	l, frobError, err := EpsilonClamp(chanspec.Eq22Covariance(), DefaultEpsilon)
	if err != nil {
		t.Fatalf("EpsilonClamp: %v", err)
	}
	if d := checkSampleCovariance(t, l, chanspec.Eq22Covariance(), 80000, 7); d > 0.03 {
		t.Errorf("ε-eigen coloring misses the PD target by %g", d)
	}
	if frobError > 1e-12 {
		t.Errorf("approximation error = %g for a PD matrix, want 0", frobError)
	}
}

func TestEpsilonEigenHandlesIndefiniteButWithError(t *testing.T) {
	l, frobError, err := EpsilonClamp(indefinite(), 1e-3)
	if err != nil {
		t.Fatalf("EpsilonClamp: %v", err)
	}
	if frobError <= 0 {
		t.Errorf("approximation error = %g for an indefinite matrix, want > 0", frobError)
	}
	// The approximated covariance K̂ = L·Lᴴ must be PSD (that is the
	// method's goal).
	approximated := cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l))
	if e, err := cmplxmat.EigenHermitian(approximated); err != nil || e.Values[0] < -1e-9 {
		t.Errorf("ε-approximated covariance is not PSD: %v %v", e, err)
	}
	// Sampling matches the approximated covariance.
	if d := checkSampleCovariance(t, l, approximated, 80000, 8); d > 0.03 {
		t.Errorf("ε-eigen sample covariance misses its own approximation by %g", d)
	}
}

func TestEpsilonEigenWorseThanZeroClampInFrobenius(t *testing.T) {
	// Quantify the paper's precision claim for a few ε values: the ε-clamp
	// error is never smaller than the zero-clamp error (which equals the norm
	// of the negative eigenvalues).
	k := indefinite()
	eig, err := cmplxmat.EigenHermitian(k)
	if err != nil {
		t.Fatalf("EigenHermitian: %v", err)
	}
	var zeroErr float64
	for _, v := range eig.Values {
		if v < 0 {
			zeroErr += v * v
		}
	}
	zeroErr = math.Sqrt(zeroErr)

	for _, eps := range []float64{1e-6, 1e-3, 0.05} {
		_, frobError, err := EpsilonClamp(k, eps)
		if err != nil {
			t.Fatalf("EpsilonClamp: %v", err)
		}
		if frobError < zeroErr-1e-12 {
			t.Errorf("ε=%g approximation error %g is below the zero-clamp error %g", eps, frobError, zeroErr)
		}
	}
}

func TestValidateCovarianceSharedChecks(t *testing.T) {
	nonHermitian := cmplxmat.MustFromRows([][]complex128{{1, 2}, {3, 4}})
	for _, method := range baselineMethods {
		if _, _, err := Coloring(method, nil); err == nil {
			t.Errorf("%s accepted a nil covariance", method)
		}
		if _, _, err := Coloring(method, cmplxmat.New(2, 3)); err == nil {
			t.Errorf("%s accepted a rectangular covariance", method)
		}
		if _, _, err := Coloring(method, nonHermitian); err == nil {
			t.Errorf("%s accepted a non-Hermitian covariance", method)
		}
	}
}
