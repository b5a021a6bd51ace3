package core

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
)

// ColoringFromCovariance computes the coloring matrix L of Section 4.3 from
// any Hermitian covariance matrix (definite or not): ForcePSD clamps it to K̄,
// and L = V·sqrt(Λ), so that L·Lᴴ = V·Λ·Vᴴ = K̄. No Cholesky factorization is
// involved, so rank-deficient and (after forcing) previously indefinite
// covariance matrices are handled without error. The forcing diagnostics are
// returned with L.
func ColoringFromCovariance(k *cmplxmat.Matrix) (*cmplxmat.Matrix, *ForcedPSD, error) {
	f, err := ForcePSD(k)
	if err != nil {
		return nil, nil, err
	}
	return cmplxmat.EigenColoring(f.Eigenvectors, f.ClampedEigenvalues), f, nil
}

// coloringFor is the coloring setup both generators share: the coloring
// matrix L of a covariance target — the eigen construction of Section 4.3
// with its zero-clamp forcing record, or the caller's override checked
// against the target's size, with no forcing record because none was
// applied.
func coloringFor(k, override *cmplxmat.Matrix) (*cmplxmat.Matrix, *ForcedPSD, error) {
	if override == nil {
		return ColoringFromCovariance(k)
	}
	if n := k.Rows(); !override.IsSquare() || override.Rows() != n {
		return nil, nil, fmt.Errorf("core: coloring override %dx%d for %d envelopes: %w",
			override.Rows(), override.Cols(), n, ErrBadInput)
	}
	return override, nil, nil
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
