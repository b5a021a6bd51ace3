// Package baseline implements the conventional correlated-Rayleigh
// generation methods that the paper reviews in its introduction, with the
// specific shortcomings the paper attributes to them left intact:
//
//   - Salz & Winters [1]: real-valued 2N-dimensional covariance, equal
//     powers only, requires that covariance to be positive semi-definite;
//   - Ertel & Reed [2]: two equal-power envelopes with a real correlation
//     coefficient;
//   - Beaulieu & Merani [4]: Cholesky coloring for N >= 2 equal-power
//     envelopes, requires positive definiteness;
//   - Natarajan, Nassar & Chandrasekhar [5]: Cholesky coloring with
//     arbitrary powers but with the covariances forced to be real;
//   - Sorooshyari & Daut [6]: eigenvalue clamping to a small ε > 0 plus
//     unit-variance whitening, the method whose real-time combination the
//     paper corrects.
//
// Each method is what the paper's algorithm (Section 4.4) makes of it: a
// function from the covariance target to a coloring matrix L that refuses
// the targets the method cannot realize. The core engine colors i.i.d.
// complex Gaussians with the method's L (rayleigh.New and rayleigh.NewStream
// wire the two), so a conventional method and the generalized one differ
// only in L and in the targets they refuse.
package baseline

import (
	"errors"
	"fmt"

	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
)

// ErrUnsupported reports that a method cannot handle the requested
// configuration (the shortcoming the paper identifies), as opposed to a
// numerical failure during setup.
var ErrUnsupported = errors.New("baseline: configuration not supported by this method")

// ErrSetupFailed reports that a method's decomposition failed (typically
// Cholesky on a matrix that is not positive definite).
var ErrSetupFailed = errors.New("baseline: setup failed")

// Coloring returns the N×N complex coloring matrix L that the named
// conventional method builds for the covariance matrix K of the complex
// Gaussian processes: L colors i.i.d. complex Gaussians of unit variance
// into the method's output. assumeUnitVariance reports whether the method's
// whitening step assumes unit variance — the Sorooshyari–Daut defect, which
// the real-time combination of Section 5 exposes. A method whose native
// coloring is not an N×N complex matrix (Salz–Winters) returns the
// equivalent proper complex coloring of the covariance its construction
// achieves; its constraints still apply.
//
// Coloring fails with ErrUnsupported or ErrSetupFailed when the method
// cannot realize K. The generalized engine is not a baseline: naming it (or
// an unknown method) is ErrUnsupported, so callers dispatch the default
// first.
func Coloring(method string, k *cmplxmat.Matrix) (l *cmplxmat.Matrix, assumeUnitVariance bool, err error) {
	switch chanspec.NormalizeMethod(method) {
	case chanspec.MethodSalzWinters:
		l, err = salzWinters(k)
	case chanspec.MethodErtelReed:
		l, err = ertelReed(k)
	case chanspec.MethodBeaulieuMerani:
		l, err = cholesky(k)
	case chanspec.MethodNatarajan:
		l, err = natarajan(k)
	case chanspec.MethodSorooshyariDaut:
		l, _, err = EpsilonClamp(k, DefaultEpsilon)
		assumeUnitVariance = true
	default:
		return nil, false, fmt.Errorf("baseline: no baseline method %q: %w", method, ErrUnsupported)
	}
	if err != nil {
		return nil, false, err
	}
	return l, assumeUnitVariance, nil
}

// equalDiagonal reports whether all diagonal entries (powers) are equal
// within a relative tolerance, which several conventional methods require.
func equalDiagonal(k *cmplxmat.Matrix, tol float64) bool {
	n := k.Rows()
	if n == 0 {
		return false
	}
	first := real(k.At(0, 0))
	for i := 1; i < n; i++ {
		d := real(k.At(i, i))
		if d < (1-tol)*first || d > (1+tol)*first {
			return false
		}
	}
	return true
}

// validateCovariance performs the shared sanity checks.
func validateCovariance(k *cmplxmat.Matrix) error {
	if k == nil {
		return fmt.Errorf("baseline: nil covariance matrix: %w", ErrUnsupported)
	}
	if !k.IsSquare() {
		return fmt.Errorf("baseline: covariance matrix must be square, got %dx%d: %w", k.Rows(), k.Cols(), ErrUnsupported)
	}
	if !k.IsHermitian(1e-9 * maxScale(k)) {
		return fmt.Errorf("baseline: covariance matrix is not Hermitian: %w", ErrUnsupported)
	}
	return nil
}

func maxScale(k *cmplxmat.Matrix) float64 {
	s := cmplxmat.MaxAbs(k)
	if s < 1 {
		return 1
	}
	return s
}
