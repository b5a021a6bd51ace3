package baseline

import (
	"fmt"

	"repro/internal/cmplxmat"
)

// DefaultEpsilon is the small positive eigenvalue substituted for
// non-positive eigenvalues in the Sorooshyari–Daut approximation. The paper
// [6] leaves ε unspecified beyond "a small, positive real number".
const DefaultEpsilon = 1e-4

// EpsilonEigen is the Sorooshyari & Daut [6] generator: the covariance
// matrix is approximated by replacing every non-positive eigenvalue with a
// small ε > 0, the coloring matrix is taken from that approximation, and the
// whitening step assumes unit-variance Gaussian inputs. Two consequences the
// paper highlights:
//
//   - the ε substitution is a strictly worse Frobenius approximation of the
//     desired covariance matrix than clamping to zero;
//   - the assumed unit variance breaks the real-time combination with
//     Doppler-filtered inputs, whose variance is Eq. (19), not 1.
type EpsilonEigen struct {
	// Epsilon overrides DefaultEpsilon when positive.
	Epsilon float64

	colorer
	forced    *cmplxmat.Matrix
	frobError float64
}

// epsilon returns the ε in effect.
func (e *EpsilonEigen) epsilon() float64 {
	if e.Epsilon > 0 {
		return e.Epsilon
	}
	return DefaultEpsilon
}

// Setup implements Method.
func (e *EpsilonEigen) Setup(k *cmplxmat.Matrix) error {
	if err := validateCovariance(k); err != nil {
		return err
	}
	eig, err := cmplxmat.EigenHermitian(k)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	eps := e.epsilon()
	clamped := make([]float64, len(eig.Values))
	for i, v := range eig.Values {
		if v > 0 {
			clamped[i] = v
		} else {
			clamped[i] = eps
		}
	}
	forced := cmplxmat.ReconstructHermitian(eig.Vectors, clamped)
	e.l = eigenColoring(eig.Vectors, clamped)
	e.forced = forced
	e.frobError = cmplxmat.FrobeniusDistance(k, forced)
	return nil
}

// Coloring implements Method: the ε-clamped coloring matrix, and — per the
// original method — the whitening step assumes unit variance. In the
// real-time combination that replaces the Eq. (19) Doppler output variance,
// and the resulting covariance bias is exactly the defect Section 5 of the
// paper corrects.
func (e *EpsilonEigen) Coloring() (*cmplxmat.Matrix, bool, error) {
	l, _, err := e.colorer.Coloring()
	return l, err == nil, err
}

// ApproximationError returns ‖K − K̂‖_F for the ε-clamped approximation used
// by the last successful Setup. The paper's precision claim (Section 4.2) is
// that the proposed zero-clamp always achieves an error at most this large.
func (e *EpsilonEigen) ApproximationError() float64 { return e.frobError }

// ApproximatedCovariance returns the ε-clamped covariance matrix K̂.
func (e *EpsilonEigen) ApproximatedCovariance() *cmplxmat.Matrix { return e.forced }
