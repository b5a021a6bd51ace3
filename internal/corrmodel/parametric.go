package corrmodel

import (
	"fmt"
	"math"
)

// ExponentialModel is the widely used engineering approximation in which the
// correlation between processes k and j decays exponentially with their
// index separation: ρ_{k,j} = ρ^{|k−j|} with 0 <= ρ < 1. It is not derived
// in the paper but is a common input to correlated-fading generators (e.g.
// for uniform linear arrays or equally spaced subcarriers) and a convenient
// stress generator for the positive semi-definiteness machinery: the
// exponential matrix is always positive definite, while its phase-rotated
// variants below need not be.
type ExponentialModel struct {
	// N is the number of processes.
	N int
	// Rho is the adjacent-pair correlation coefficient magnitude in [0, 1).
	Rho float64
	// PhaseRad rotates the correlation of each adjacent pair by a fixed phase,
	// producing complex covariances: ρ_{k,j} = (ρ·e^{iφ})^{(k−j)} for k > j.
	PhaseRad float64
	// Power is the common Gaussian power σ².
	Power float64
}

// Validate checks the model parameters.
func (m *ExponentialModel) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("corrmodel: exponential model with N = %d: %w", m.N, ErrBadParameter)
	}
	if m.Rho < 0 || m.Rho >= 1 {
		return fmt.Errorf("corrmodel: exponential correlation %g outside [0, 1): %w", m.Rho, ErrBadParameter)
	}
	if m.Power <= 0 {
		return fmt.Errorf("corrmodel: non-positive power %g: %w", m.Power, ErrBadParameter)
	}
	return nil
}

// Size implements PairModel.
func (m *ExponentialModel) Size() int { return m.N }

// Pair implements PairModel. The complex correlation (ρ·e^{iφ})^{k−j} is
// decomposed into the four real covariances so that the Eq. (13) assembly
// reproduces it exactly: μ = σ²·ρ^{|k−j|}·e^{i·(k−j)·φ}.
func (m *ExponentialModel) Pair(k, j int) (CrossCovariance, error) {
	if k < 0 || k >= m.N || j < 0 || j >= m.N {
		return CrossCovariance{}, fmt.Errorf("corrmodel: pair (%d,%d) out of range for size %d: %w", k, j, m.N, ErrBadParameter)
	}
	sep := k - j
	mag := m.Power * math.Pow(m.Rho, math.Abs(float64(sep)))
	phase := float64(sep) * m.PhaseRad
	// μ = mag·e^{iφ_sep} = (Rxx+Ryy) − i(Rxy − Ryx) with Rxx = Ryy and
	// Ryx = −Rxy, so Rxx = mag·cos(φ)/2 and Rxy = −mag·sin(φ)/2.
	rxx := mag * math.Cos(phase) / 2
	rxy := -mag * math.Sin(phase) / 2
	return CrossCovariance{Rxx: rxx, Ryy: rxx, Rxy: rxy, Ryx: -rxy}, nil
}

// Covariance builds the covariance matrix for the model.
func (m *ExponentialModel) Covariance() (*CovarianceResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	powers := make([]float64, m.N)
	for i := range powers {
		powers[i] = m.Power
	}
	k, err := BuildCovariance(m, powers)
	if err != nil {
		return nil, err
	}
	return &CovarianceResult{Matrix: k, GaussianPowers: powers}, nil
}

// ConstantModel gives every distinct pair the same real correlation
// coefficient ρ. For ρ below −1/(N−1) the matrix is indefinite, which makes
// the model a convenient generator of covariance matrices that the
// conventional Cholesky-based methods cannot handle but the paper's forcing
// procedure can (experiment E6 uses exactly this mechanism).
type ConstantModel struct {
	// N is the number of processes.
	N int
	// Rho is the common pairwise correlation coefficient in [−1, 1].
	Rho float64
	// Power is the common Gaussian power σ².
	Power float64
}

// Validate checks the model parameters. Note that ρ < −1/(N−1) is allowed on
// purpose: it produces an indefinite "covariance" request, the situation the
// paper's algorithm is designed to survive.
func (m *ConstantModel) Validate() error {
	if m.N <= 0 {
		return fmt.Errorf("corrmodel: constant model with N = %d: %w", m.N, ErrBadParameter)
	}
	if m.Rho < -1 || m.Rho > 1 {
		return fmt.Errorf("corrmodel: constant correlation %g outside [−1, 1]: %w", m.Rho, ErrBadParameter)
	}
	if m.Power <= 0 {
		return fmt.Errorf("corrmodel: non-positive power %g: %w", m.Power, ErrBadParameter)
	}
	return nil
}

// Size implements PairModel.
func (m *ConstantModel) Size() int { return m.N }

// Pair implements PairModel.
func (m *ConstantModel) Pair(k, j int) (CrossCovariance, error) {
	if k < 0 || k >= m.N || j < 0 || j >= m.N {
		return CrossCovariance{}, fmt.Errorf("corrmodel: pair (%d,%d) out of range for size %d: %w", k, j, m.N, ErrBadParameter)
	}
	rxx := m.Power * m.Rho / 2
	return CrossCovariance{Rxx: rxx, Ryy: rxx}, nil
}

// Covariance builds the covariance matrix for the model.
func (m *ConstantModel) Covariance() (*CovarianceResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	powers := make([]float64, m.N)
	for i := range powers {
		powers[i] = m.Power
	}
	k, err := BuildCovariance(m, powers)
	if err != nil {
		return nil, err
	}
	return &CovarianceResult{Matrix: k, GaussianPowers: powers}, nil
}
