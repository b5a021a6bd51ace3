package core

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
)

// ColoringMatrix computes the coloring matrix L of Section 4.3 from a forced
// positive semi-definite covariance matrix: L = V·sqrt(Λ), so that
// L·Lᴴ = V·Λ·Vᴴ = K̄. No Cholesky factorization is involved, so
// rank-deficient and (after forcing) previously indefinite covariance
// matrices are handled without error.
func ColoringMatrix(f *ForcedPSD) *cmplxmat.Matrix {
	n := f.Eigenvectors.Rows()
	l := cmplxmat.New(n, n)
	for j := 0; j < n; j++ {
		s := math.Sqrt(f.ClampedEigenvalues[j])
		for i := 0; i < n; i++ {
			l.Set(i, j, f.Eigenvectors.At(i, j)*complex(s, 0))
		}
	}
	return l
}

// ColoringFromCovariance is a convenience that chains ForcePSD and
// ColoringMatrix: given any Hermitian covariance matrix (definite or not), it
// returns the coloring matrix together with the forcing diagnostics.
func ColoringFromCovariance(k *cmplxmat.Matrix) (*cmplxmat.Matrix, *ForcedPSD, error) {
	f, err := ForcePSD(k)
	if err != nil {
		return nil, nil, err
	}
	return ColoringMatrix(f), f, nil
}

// coloringFor is the coloring setup both generators share: the coloring
// matrix L of a covariance target — the eigen construction of Section 4.3,
// or the caller's override checked against the target's size — and the
// target's zero-clamp forcing record, which an override does not consult.
func coloringFor(k, override *cmplxmat.Matrix) (*cmplxmat.Matrix, *ForcedPSD, error) {
	if override == nil {
		return ColoringFromCovariance(k)
	}
	if n := k.Rows(); !override.IsSquare() || override.Rows() != n {
		return nil, nil, fmt.Errorf("core: coloring override %dx%d for %d envelopes: %w",
			override.Rows(), override.Cols(), n, ErrBadInput)
	}
	forced, err := ForcePSD(k)
	if err != nil {
		return nil, nil, err
	}
	return override, forced, nil
}

// VerifyColoring returns ‖L·Lᴴ − K̄‖_F, the defect of the coloring matrix
// against the forced covariance. Tests use it as the reconstruction oracle;
// a correct decomposition keeps it at round-off level.
func VerifyColoring(l *cmplxmat.Matrix, f *ForcedPSD) float64 {
	return cmplxmat.FrobeniusDistance(cmplxmat.MustMul(l, cmplxmat.ConjTranspose(l)), f.Forced)
}

// ScaleColoring divides the coloring matrix by σ_g, producing the matrix that
// multiplies the raw Gaussian vector W in step 7 (Z = L·W/σ_g). σ²_g is the
// variance of the entries of W — unity-free in the snapshot mode where the
// caller picks it, and the Doppler output variance of Eq. (19) in the
// real-time mode.
func ScaleColoring(l *cmplxmat.Matrix, sigmaG2 float64) (*cmplxmat.Matrix, error) {
	if sigmaG2 <= 0 {
		return nil, fmt.Errorf("core: Gaussian sample variance %g must be positive: %w", sigmaG2, ErrBadInput)
	}
	return cmplxmat.Scale(complex(1/math.Sqrt(sigmaG2), 0), l), nil
}
