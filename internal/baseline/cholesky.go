package baseline

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
)

// cholesky is the Beaulieu–Merani [4] style generator: the coloring matrix is
// the lower-triangular Cholesky factor of the covariance matrix. It supports
// any N and (in this general form) arbitrary powers, but it aborts with
// ErrSetupFailed whenever the covariance matrix is not strictly positive
// definite — the restriction the paper's eigen-coloring removes.
func cholesky(k *cmplxmat.Matrix) (*cmplxmat.Matrix, error) {
	if err := validateCovariance(k); err != nil {
		return nil, err
	}
	l, err := cmplxmat.Cholesky(k)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	return l, nil
}

// natarajan is the Natarajan–Nassar–Chandrasekhar [5] generator: Cholesky
// coloring with arbitrary powers, but — as the paper points out — the
// covariances of the complex Gaussians are forced to be real (Eq. (8) of
// [5]). For covariance matrices with genuinely complex off-diagonal entries
// (time-delay/frequency-separation correlation, or spatial correlation off
// broadside) this discards the imaginary parts and biases the result: the
// output covariance is Re(K).
func natarajan(k *cmplxmat.Matrix) (*cmplxmat.Matrix, error) {
	if err := validateCovariance(k); err != nil {
		return nil, err
	}
	// Force the covariances to be real, keeping the diagonal untouched.
	n := k.Rows()
	realK := cmplxmat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			realK.Set(i, j, complex(real(k.At(i, j)), 0))
		}
	}
	realK.Hermitize()
	l, err := cmplxmat.Cholesky(realK)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	return l, nil
}

// ertelReed is the Ertel & Reed [2] generator for exactly two equal-power
// envelopes with a real cross-correlation coefficient: the second branch is
// built as z2 = ρ·z1 + sqrt(1−ρ²)·w, which is the lower-triangular coloring
// sqrt(p)·[[1, 0], [ρ, sqrt(1−ρ²)]] of unit complex Gaussians. Anything else
// — N ≠ 2, unequal powers or a complex correlation — is unsupported.
func ertelReed(k *cmplxmat.Matrix) (*cmplxmat.Matrix, error) {
	if err := validateCovariance(k); err != nil {
		return nil, err
	}
	if k.Rows() != 2 {
		return nil, fmt.Errorf("baseline: Ertel–Reed supports exactly 2 envelopes, got %d: %w", k.Rows(), ErrUnsupported)
	}
	if !equalDiagonal(k, 1e-9) {
		return nil, fmt.Errorf("baseline: Ertel–Reed requires equal powers: %w", ErrUnsupported)
	}
	offDiag := k.At(0, 1)
	if imagAbs(offDiag) > 1e-9*maxScale(k) {
		return nil, fmt.Errorf("baseline: Ertel–Reed requires a real correlation coefficient: %w", ErrUnsupported)
	}
	power := real(k.At(0, 0))
	rho := real(offDiag) / power
	if rho < -1 || rho > 1 {
		return nil, fmt.Errorf("baseline: correlation coefficient %g outside [-1, 1]: %w", rho, ErrSetupFailed)
	}
	s := math.Sqrt(power)
	return cmplxmat.MustFromRows([][]complex128{
		{complex(s, 0), 0},
		{complex(rho*s, 0), complex(sqrt1m(rho)*s, 0)},
	}), nil
}

func imagAbs(v complex128) float64 {
	return math.Abs(imag(v))
}

// sqrt1m returns sqrt(1 − ρ²) guarding against round-off pushing the
// argument slightly negative.
func sqrt1m(rho float64) float64 {
	arg := 1 - rho*rho
	if arg < 0 {
		arg = 0
	}
	return math.Sqrt(arg)
}
