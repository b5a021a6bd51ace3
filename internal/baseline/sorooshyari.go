package baseline

import (
	"fmt"

	"repro/internal/cmplxmat"
)

// DefaultEpsilon is the small positive eigenvalue substituted for
// non-positive eigenvalues in the Sorooshyari–Daut approximation. The paper
// [6] leaves ε unspecified beyond "a small, positive real number".
const DefaultEpsilon = 1e-4

// EpsilonClamp is the Sorooshyari & Daut [6] approximation: the covariance
// matrix K is approximated by K̂, which replaces every non-positive
// eigenvalue of K with eps > 0. It returns the coloring matrix of K̂ and the
// approximation error ‖K − K̂‖_F. The paper's precision claim (Section 4.2)
// is that the proposed zero clamp always achieves an error at most this
// large.
//
// As a generation method (Coloring's sorooshyari_daut) the whitening step
// also assumes unit-variance Gaussian inputs, which breaks the real-time
// combination with Doppler-filtered inputs, whose variance is Eq. (19), not
// 1: the resulting covariance bias is exactly the defect Section 5 of the
// paper corrects.
func EpsilonClamp(k *cmplxmat.Matrix, eps float64) (l *cmplxmat.Matrix, frobError float64, err error) {
	if err := validateCovariance(k); err != nil {
		return nil, 0, err
	}
	eig, err := cmplxmat.EigenHermitian(k)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	clamped := make([]float64, len(eig.Values))
	for i, v := range eig.Values {
		if v > 0 {
			clamped[i] = v
		} else {
			clamped[i] = eps
		}
	}
	forced := cmplxmat.ReconstructHermitian(eig.Vectors, clamped)
	return cmplxmat.EigenColoring(eig.Vectors, clamped), cmplxmat.FrobeniusDistance(k, forced), nil
}
