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
// Each method is what the paper's algorithm (Section 4.4) makes of it: setup
// constraints plus a coloring matrix L. Setup refuses the targets the method
// cannot realize, and the core engine colors i.i.d. complex Gaussians with the
// method's L (internal/backend wires the two), so a conventional method and
// the generalized one differ only in L and in the targets they refuse.
package baseline

import (
	"errors"
	"fmt"
	"math"

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

// Method is a conventional generation method reduced to what sets it apart:
// the targets it refuses and its coloring matrix.
type Method interface {
	// Setup prepares the method for the desired covariance matrix K of the
	// complex Gaussian processes, failing with ErrUnsupported or
	// ErrSetupFailed when the method cannot realize K.
	Setup(k *cmplxmat.Matrix) error
	// Coloring returns the N×N complex coloring matrix L that colors i.i.d.
	// complex Gaussians of unit variance into the method's output, plus
	// whether the whitening step assumes unit variance — the Sorooshyari–Daut
	// defect, which the real-time combination of Section 5 exposes. Methods
	// whose native coloring is not an N×N complex matrix (Salz–Winters)
	// return the equivalent proper complex coloring of the covariance their
	// construction achieves; the method's Setup constraints still apply.
	// Setup must have succeeded first.
	Coloring() (l *cmplxmat.Matrix, assumeUnitVariance bool, err error)
}

// colorer holds the coloring matrix a successful Setup installs and
// implements Coloring for the methods whose whitening uses the true sample
// variance.
type colorer struct {
	l *cmplxmat.Matrix
}

// Coloring implements Method.
func (c *colorer) Coloring() (*cmplxmat.Matrix, bool, error) {
	if c.l == nil {
		return nil, false, fmt.Errorf("baseline: Coloring before successful Setup: %w", ErrSetupFailed)
	}
	return c.l, false, nil
}

// eigenColoring returns V·sqrt(Λ) for the eigenvectors V and the
// non-negative eigenvalues Λ of a covariance matrix.
func eigenColoring(vectors *cmplxmat.Matrix, values []float64) *cmplxmat.Matrix {
	n := len(values)
	l := cmplxmat.New(n, n)
	for c := 0; c < n; c++ {
		f := complex(math.Sqrt(values[c]), 0)
		for r := 0; r < n; r++ {
			l.Set(r, c, vectors.At(r, c)*f)
		}
	}
	return l
}

// New returns the baseline method a chanspec method name selects. The
// generalized engine is not a baseline: resolving it (or an unknown name)
// is an error, so callers dispatch the default before consulting this
// registry.
func New(method string) (Method, error) {
	switch chanspec.NormalizeMethod(method) {
	case chanspec.MethodSalzWinters:
		return &SalzWintersReal{}, nil
	case chanspec.MethodErtelReed:
		return &ErtelReedPair{}, nil
	case chanspec.MethodBeaulieuMerani:
		return &CholeskyColoring{}, nil
	case chanspec.MethodNatarajan:
		return &NatarajanColoring{}, nil
	case chanspec.MethodSorooshyariDaut:
		return &EpsilonEigen{}, nil
	}
	return nil, fmt.Errorf("baseline: no baseline method %q: %w", method, ErrUnsupported)
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
