// Package core implements the paper's primary contribution: the generalized
// algorithm of Sections 4–5 for generating an arbitrary number of correlated
// Rayleigh fading envelopes with arbitrary (equal or unequal) powers and any
// desired covariance matrix of the underlying complex Gaussian processes.
//
// The pipeline is:
//
//  1. convert desired envelope powers to Gaussian powers if necessary
//     (Eq. (11));
//  2. assemble the complex covariance matrix K (Eq. (12)–(13), delegated to
//     the corrmodel package or supplied directly);
//  3. force positive semi-definiteness by eigendecomposition and clamping
//     negative eigenvalues to exactly zero (Section 4.2);
//  4. compute the coloring matrix L = V·sqrt(Λ) without Cholesky
//     (Section 4.3);
//  5. color i.i.d. complex Gaussian vectors, Z = L·W/σ_g (steps 6–7), where
//     in the real-time mode σ²_g is the Doppler-filter output variance of
//     Eq. (19) rather than an assumed unit value (Section 5).
package core

import (
	"errors"
	"fmt"

	"repro/internal/cmplxmat"
)

// ErrBadInput reports invalid caller-supplied configuration.
var ErrBadInput = errors.New("core: invalid input")

// ForcedPSD is the result of the positive semi-definiteness forcing procedure
// of Section 4.2 applied to a desired covariance matrix K.
type ForcedPSD struct {
	// Original is the desired covariance matrix K as supplied.
	Original *cmplxmat.Matrix
	// Forced is K̄ = V·Λ·Vᴴ with negative eigenvalues clamped to zero. When K
	// is already positive semi-definite, Forced equals Original up to
	// round-off.
	Forced *cmplxmat.Matrix
	// Eigenvectors is V from the eigendecomposition of K.
	Eigenvectors *cmplxmat.Matrix
	// Eigenvalues are the raw eigenvalues λ_j of K (ascending).
	Eigenvalues []float64
	// ClampedEigenvalues are the λ̂_j of Section 4.2: max(λ_j, 0).
	ClampedEigenvalues []float64
	// NumClamped counts how many eigenvalues were negative and clamped.
	NumClamped int
	// FrobeniusError is ‖K − K̄‖_F, the approximation error introduced by the
	// forcing procedure (zero when K is PSD).
	FrobeniusError float64
}

// ForcePSD performs the positive semi-definiteness forcing procedure of
// Section 4.2: eigendecompose K, replace negative eigenvalues by exactly
// zero, and rebuild K̄ = V·Λ·Vᴴ. Unlike the ε-substitution of Sorooshyari &
// Daut [6], the zero clamp makes K̄ the closest PSD matrix to K in the
// Frobenius norm.
//
// The input must be Hermitian (covariance matrices always are); it does not
// need to be positive definite or even positive semi-definite.
func ForcePSD(k *cmplxmat.Matrix) (*ForcedPSD, error) {
	if !k.IsSquare() {
		return nil, fmt.Errorf("core: covariance matrix must be square, got %dx%d: %w", k.Rows(), k.Cols(), ErrBadInput)
	}
	eig, err := cmplxmat.EigenHermitian(k)
	if err != nil {
		return nil, fmt.Errorf("core: eigendecomposition of covariance matrix: %w", err)
	}
	clamped := make([]float64, len(eig.Values))
	numClamped := 0
	for i, v := range eig.Values {
		if v >= 0 {
			clamped[i] = v
		} else {
			clamped[i] = 0
			numClamped++
		}
	}
	var forced *cmplxmat.Matrix
	if numClamped == 0 {
		// Already PSD: keep the caller's matrix exactly (the reconstruction
		// would only add round-off noise).
		forced = k.Clone()
	} else {
		forced = cmplxmat.ReconstructHermitian(eig.Vectors, clamped)
	}
	return &ForcedPSD{
		Original:           k.Clone(),
		Forced:             forced,
		Eigenvectors:       eig.Vectors,
		Eigenvalues:        eig.Values,
		ClampedEigenvalues: clamped,
		NumClamped:         numClamped,
		FrobeniusError:     cmplxmat.FrobeniusDistance(k, forced),
	}, nil
}
