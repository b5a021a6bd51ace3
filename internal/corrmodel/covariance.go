// Package corrmodel builds the desired covariance matrix K of the complex
// Gaussian processes underlying the Rayleigh envelopes, following the paper:
//
//   - Eq. (1)–(2): definitions of the four real covariances Rxx, Ryy, Rxy,
//     Ryx between the real and imaginary parts of a pair of processes;
//   - Eq. (3)–(4): the Jakes spectral-correlation model (time delay and
//     frequency separation, as in OFDM);
//   - Eq. (5)–(7): the Salz–Winters spatial-correlation model (antenna
//     arrays, as in MIMO);
//   - Eq. (12)–(13): the assembly of the complex covariance matrix K from
//     those real covariances and the per-process Gaussian powers σg²_j.
package corrmodel

import (
	"errors"
	"fmt"

	"repro/internal/cmplxmat"
)

// CrossCovariance carries the four real covariances between the in-phase and
// quadrature components of two complex Gaussian processes z_k and z_j, as
// defined in Eq. (1)–(2) of the paper:
//
//	Rxx = E(x_k·x_j),  Ryy = E(y_k·y_j),
//	Rxy = E(x_k·y_j),  Ryx = E(y_k·x_j).
type CrossCovariance struct {
	Rxx float64
	Ryy float64
	Rxy float64
	Ryx float64
}

// GaussianEntry returns the off-diagonal covariance-matrix entry μ_{k,j}
// prescribed by Eq. (13):
//
//	μ_{k,j} = (Rxx + Ryy) − i·(Rxy − Ryx).
func (c CrossCovariance) GaussianEntry() complex128 {
	return complex(c.Rxx+c.Ryy, -(c.Rxy - c.Ryx))
}

// PairModel produces the cross-covariance between processes k and j. The
// diagonal (k == j) is never requested; it is set from the Gaussian powers.
type PairModel interface {
	// Pair returns the cross-covariance between the k-th and j-th process
	// (k ≠ j, both zero-based).
	Pair(k, j int) (CrossCovariance, error)
	// Size returns the number of processes N described by the model.
	Size() int
}

// ErrBadParameter reports a physically meaningless model parameter.
var ErrBadParameter = errors.New("corrmodel: invalid parameter")

// BuildCovariance assembles the N×N covariance matrix K of Eq. (12)–(13)
// from a pair model and the desired complex-Gaussian powers σg²_j. The
// number of powers must match the model size.
func BuildCovariance(model PairModel, gaussianPowers []float64) (*cmplxmat.Matrix, error) {
	n := model.Size()
	if n <= 0 {
		return nil, fmt.Errorf("corrmodel: model has non-positive size %d: %w", n, ErrBadParameter)
	}
	if len(gaussianPowers) != n {
		return nil, fmt.Errorf("corrmodel: %d powers for model of size %d: %w", len(gaussianPowers), n, ErrBadParameter)
	}
	for j, p := range gaussianPowers {
		if p <= 0 {
			return nil, fmt.Errorf("corrmodel: power %d is %g, must be positive: %w", j, p, ErrBadParameter)
		}
	}
	k := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		k.Set(i, i, complex(gaussianPowers[i], 0))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			cc, err := model.Pair(i, j)
			if err != nil {
				return nil, err
			}
			k.Set(i, j, cc.GaussianEntry())
		}
	}
	// Covariance matrices are Hermitian by construction of the underlying
	// processes; enforce exact symmetry against model round-off so the eigen
	// routine never rejects a physically valid input.
	k.Hermitize()
	return k, nil
}

// UncorrelatedModel describes N mutually independent processes: every
// cross-covariance is zero. Useful as a degenerate baseline in tests and for
// generating i.i.d. branches through the same pipeline.
type UncorrelatedModel struct {
	N int
}

// Size implements PairModel.
func (m UncorrelatedModel) Size() int { return m.N }

// Pair implements PairModel.
func (m UncorrelatedModel) Pair(k, j int) (CrossCovariance, error) {
	if k < 0 || k >= m.N || j < 0 || j >= m.N {
		return CrossCovariance{}, fmt.Errorf("corrmodel: pair (%d,%d) out of range for size %d: %w", k, j, m.N, ErrBadParameter)
	}
	return CrossCovariance{}, nil
}
