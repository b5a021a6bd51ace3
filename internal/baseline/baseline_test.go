package baseline

import (
	"errors"
	"math"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/randx"
	"repro/internal/stats"
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

// checkSampleCovariance draws snapshots from a configured method and returns
// the worst absolute entry difference from the target.
func checkSampleCovariance(t *testing.T, m Method, target *cmplxmat.Matrix, draws int, seed int64) float64 {
	t.Helper()
	rng := randx.New(seed)
	samples := make([][]complex128, draws)
	for i := range samples {
		z, err := m.Generate(rng)
		if err != nil {
			t.Fatalf("%s Generate: %v", m.Name(), err)
		}
		samples[i] = z
	}
	cov, err := stats.SampleCovariance(samples)
	if err != nil {
		t.Fatalf("SampleCovariance: %v", err)
	}
	cmp, err := stats.CompareCovariance(cov, target)
	if err != nil {
		t.Fatalf("CompareCovariance: %v", err)
	}
	return cmp.MaxAbs
}

func TestCholeskyColoringOnPositiveDefinite(t *testing.T) {
	m := &CholeskyColoring{}
	if err := m.Setup(chanspec.Eq22Covariance()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if d := checkSampleCovariance(t, m, chanspec.Eq22Covariance(), 80000, 1); d > 0.03 {
		t.Errorf("Cholesky coloring misses the target covariance by %g", d)
	}
}

func TestCholeskyColoringFailsOnIndefinite(t *testing.T) {
	m := &CholeskyColoring{}
	if err := m.Setup(indefinite()); !errors.Is(err, ErrSetupFailed) {
		t.Errorf("Setup(indefinite) error = %v, want ErrSetupFailed", err)
	}
	if _, err := m.Generate(randx.New(1)); err == nil {
		t.Errorf("Generate after failed Setup did not error")
	}
}

func TestCholeskyColoringFailsOnRankDeficient(t *testing.T) {
	m := &CholeskyColoring{}
	if err := m.Setup(rankDeficient()); !errors.Is(err, ErrSetupFailed) {
		t.Errorf("Setup(rank-deficient) error = %v, want ErrSetupFailed", err)
	}
}

func TestNatarajanDiscardsImaginaryCovariances(t *testing.T) {
	// On the real Eq. (23) matrix the method matches the target; on the
	// complex Eq. (22) matrix it reproduces only the real parts — the bias
	// the paper criticizes.
	m := &NatarajanColoring{}
	if err := m.Setup(eq23()); err != nil {
		t.Fatalf("Setup(eq23): %v", err)
	}
	if d := checkSampleCovariance(t, m, eq23(), 80000, 2); d > 0.03 {
		t.Errorf("Natarajan coloring misses the real target by %g", d)
	}

	if err := m.Setup(chanspec.Eq22Covariance()); err != nil {
		t.Fatalf("Setup(eq22): %v", err)
	}
	dTarget := checkSampleCovariance(t, m, chanspec.Eq22Covariance(), 80000, 3)
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
	if d := checkSampleCovariance(t, m, realPart, 80000, 4); d > 0.03 {
		t.Errorf("Natarajan coloring misses even the real part of the target by %g", d)
	}
}

func TestErtelReedPair(t *testing.T) {
	m := &ErtelReedPair{}
	k := cmplxmat.MustFromRows([][]complex128{
		{2, 1.2},
		{1.2, 2},
	})
	if err := m.Setup(k); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if d := checkSampleCovariance(t, m, k, 100000, 5); d > 0.05 {
		t.Errorf("Ertel–Reed misses the target covariance by %g", d)
	}
}

func TestErtelReedPairRestrictions(t *testing.T) {
	m := &ErtelReedPair{}
	if err := m.Setup(chanspec.Eq22Covariance()); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Setup(N=3) error = %v, want ErrUnsupported", err)
	}
	unequal := cmplxmat.MustFromRows([][]complex128{
		{1, 0.5},
		{0.5, 2},
	})
	if err := m.Setup(unequal); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Setup(unequal powers) error = %v, want ErrUnsupported", err)
	}
	complexCorr := cmplxmat.MustFromRows([][]complex128{
		{1, 0.5 + 0.3i},
		{0.5 - 0.3i, 1},
	})
	if err := m.Setup(complexCorr); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Setup(complex correlation) error = %v, want ErrUnsupported", err)
	}
	if _, err := m.Generate(randx.New(1)); err == nil {
		t.Errorf("Generate after failed Setup did not error")
	}
}

func TestSalzWintersRealOnEqualPowerPSD(t *testing.T) {
	m := &SalzWintersReal{}
	if err := m.Setup(chanspec.Eq22Covariance()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if d := checkSampleCovariance(t, m, chanspec.Eq22Covariance(), 80000, 6); d > 0.04 {
		t.Errorf("Salz–Winters misses the target covariance by %g", d)
	}
}

func TestSalzWintersRejectsUnequalPowers(t *testing.T) {
	m := &SalzWintersReal{}
	unequal := cmplxmat.MustFromRows([][]complex128{
		{1, 0.2},
		{0.2, 3},
	})
	if err := m.Setup(unequal); !errors.Is(err, ErrUnsupported) {
		t.Errorf("Setup(unequal powers) error = %v, want ErrUnsupported", err)
	}
}

func TestSalzWintersRejectsIndefinite(t *testing.T) {
	m := &SalzWintersReal{}
	if err := m.Setup(indefinite()); !errors.Is(err, ErrSetupFailed) {
		t.Errorf("Setup(indefinite) error = %v, want ErrSetupFailed", err)
	}
	if _, err := m.Generate(randx.New(1)); err == nil {
		t.Errorf("Generate after failed Setup did not error")
	}
}

func TestEpsilonEigenOnPositiveDefinite(t *testing.T) {
	m := &EpsilonEigen{}
	if err := m.Setup(chanspec.Eq22Covariance()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if d := checkSampleCovariance(t, m, chanspec.Eq22Covariance(), 80000, 7); d > 0.03 {
		t.Errorf("ε-eigen coloring misses the PD target by %g", d)
	}
	if m.ApproximationError() > 1e-12 {
		t.Errorf("ApproximationError = %g for a PD matrix, want 0", m.ApproximationError())
	}
}

func TestEpsilonEigenHandlesIndefiniteButWithError(t *testing.T) {
	m := &EpsilonEigen{Epsilon: 1e-3}
	if err := m.Setup(indefinite()); err != nil {
		t.Fatalf("Setup: %v", err)
	}
	if m.ApproximationError() <= 0 {
		t.Errorf("ApproximationError = %g for an indefinite matrix, want > 0", m.ApproximationError())
	}
	// The approximated covariance must be PSD (that is the method's goal).
	ok, err := cmplxmat.IsPositiveSemiDefinite(m.ApproximatedCovariance(), 1e-9)
	if err != nil || !ok {
		t.Errorf("ε-approximated covariance is not PSD: %v %v", ok, err)
	}
	// Sampling matches the approximated covariance.
	if d := checkSampleCovariance(t, m, m.ApproximatedCovariance(), 80000, 8); d > 0.03 {
		t.Errorf("ε-eigen sample covariance misses its own approximation by %g", d)
	}
	if _, err := (&EpsilonEigen{}).Generate(randx.New(1)); err == nil {
		t.Errorf("Generate before Setup did not error")
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
		m := &EpsilonEigen{Epsilon: eps}
		if err := m.Setup(k); err != nil {
			t.Fatalf("Setup: %v", err)
		}
		if m.ApproximationError() < zeroErr-1e-12 {
			t.Errorf("ε=%g approximation error %g is below the zero-clamp error %g", eps, m.ApproximationError(), zeroErr)
		}
	}
}

func TestValidateCovarianceSharedChecks(t *testing.T) {
	methods := []Method{&CholeskyColoring{}, &NatarajanColoring{}, &SalzWintersReal{}, &EpsilonEigen{}, &ErtelReedPair{}}
	nonHermitian := cmplxmat.MustFromRows([][]complex128{{1, 2}, {3, 4}})
	for _, m := range methods {
		if err := m.Setup(nil); err == nil {
			t.Errorf("%s accepted a nil covariance", m.Name())
		}
		if err := m.Setup(cmplxmat.New(2, 3)); err == nil {
			t.Errorf("%s accepted a rectangular covariance", m.Name())
		}
		if err := m.Setup(nonHermitian); err == nil {
			t.Errorf("%s accepted a non-Hermitian covariance", m.Name())
		}
		if m.Name() == "" {
			t.Errorf("method has empty name")
		}
	}
}
