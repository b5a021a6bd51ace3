package baseline

import (
	"fmt"

	"repro/internal/cmplxmat"
)

// SalzWintersReal is the Salz & Winters [1] construction: the 2N real
// Gaussian components (x_1…x_N, y_1…y_N) are colored jointly using the real
// 2N×2N covariance matrix assembled from the Rxx/Rxy blocks. As in [1], the
// method supports equal powers only, and the real covariance matrix must be
// positive semi-definite for the coloring matrix to stay real — otherwise
// Setup fails, which is exactly the limitation the paper points out.
//
// The real 2N coloring has no N×N complex form, so Coloring returns the
// equivalent proper complex coloring of the covariance the construction
// achieves (the eigen coloring of K): the output process is distributionally
// identical — same covariance, same properness.
type SalzWintersReal struct {
	colorer
}

// Setup implements Method.
func (s *SalzWintersReal) Setup(k *cmplxmat.Matrix) error {
	if err := validateCovariance(k); err != nil {
		return err
	}
	if !equalDiagonal(k, 1e-9) {
		return fmt.Errorf("baseline: Salz–Winters requires equal powers: %w", ErrUnsupported)
	}
	n := k.Rows()

	// Recover the per-pair real covariances from the complex covariance
	// entry μ = 2·Rxx − 2i·Rxy (Eq. (13) with Ryy = Rxx, Ryx = −Rxy), and the
	// per-dimension variance from the diagonal.
	big := cmplxmat.New(2*n, 2*n)
	for i := 0; i < n; i++ {
		perDim := real(k.At(i, i)) / 2
		big.Set(i, i, complex(perDim, 0))
		big.Set(n+i, n+i, complex(perDim, 0))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rxx := real(k.At(i, j)) / 2
			rxy := -imag(k.At(i, j)) / 2
			// Block layout: [x; y] ordering.
			big.Set(i, j, complex(rxx, 0))     // E(x_i x_j)
			big.Set(n+i, n+j, complex(rxx, 0)) // E(y_i y_j) = Rxx
			big.Set(i, n+j, complex(rxy, 0))   // E(x_i y_j) = Rxy
			big.Set(n+i, j, complex(-rxy, 0))  // E(y_i x_j) = Ryx = −Rxy
		}
	}
	big.Hermitize()

	eig, err := cmplxmat.EigenHermitian(big)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	// The construction of [1] requires the real covariance to be PSD so the
	// coloring matrix stays real; a negative eigenvalue means the method
	// cannot meet the requested correlation and we refuse rather than emit a
	// complex "real-part" coloring.
	scale := maxScale(big)
	for _, lambda := range eig.Values {
		if lambda < -1e-9*scale {
			return fmt.Errorf("baseline: real covariance matrix is not positive semi-definite (eigenvalue %g): %w", lambda, ErrSetupFailed)
		}
	}

	eigK, err := cmplxmat.EigenHermitian(k)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	values := make([]float64, n)
	for c, lambda := range eigK.Values {
		// The real 2N matrix is PSD, which bounds the complex spectrum; tiny
		// negatives are round-off.
		values[c] = max(lambda, 0)
	}
	s.l = eigenColoring(eigK.Vectors, values)
	return nil
}
