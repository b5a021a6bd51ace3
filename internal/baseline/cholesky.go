package baseline

import (
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/randx"
)

// CholeskyColoring is the Beaulieu–Merani [4] style generator: the coloring
// matrix is the lower-triangular Cholesky factor of the covariance matrix.
// It supports any N and (in this general form) arbitrary powers, but it
// aborts whenever the covariance matrix is not strictly positive definite —
// the restriction the paper's eigen-coloring removes.
type CholeskyColoring struct {
	factor *cmplxmat.Matrix
	n      int
	w      []complex128 // GenerateInto scratch
	batch  colorBatch
}

// Name implements Method.
func (c *CholeskyColoring) Name() string { return "cholesky-coloring (Beaulieu–Merani 2000)" }

// Setup implements Method. It fails with ErrSetupFailed when the covariance
// matrix is not positive definite.
func (c *CholeskyColoring) Setup(k *cmplxmat.Matrix) error {
	if err := validateCovariance(k); err != nil {
		return err
	}
	l, err := cmplxmat.Cholesky(k)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	c.factor = l
	c.n = k.Rows()
	c.w = make([]complex128, c.n)
	c.batch.reset(l, false)
	return nil
}

// Generate implements Method, routing through GenerateInto so the two paths
// produce bit-identical values from the same stream.
func (c *CholeskyColoring) Generate(rng *randx.RNG) ([]complex128, error) {
	if c.factor == nil {
		return nil, fmt.Errorf("baseline: Generate before successful Setup: %w", ErrSetupFailed)
	}
	out := make([]complex128, c.n)
	env := make([]float64, c.n)
	if err := c.GenerateInto(rng, out, env); err != nil {
		return nil, err
	}
	return out, nil
}

// N implements Method.
func (c *CholeskyColoring) N() int { return c.n }

// GenerateInto implements Method.
func (c *CholeskyColoring) GenerateInto(rng *randx.RNG, gaussian []complex128, env []float64) error {
	if c.factor == nil {
		return fmt.Errorf("baseline: GenerateInto before successful Setup: %w", ErrSetupFailed)
	}
	if err := checkIntoDst(c.n, gaussian, env); err != nil {
		return err
	}
	rng.FillComplexNormal(c.w, 1)
	if err := cmplxmat.MulVecInto(gaussian, c.factor, c.w); err != nil {
		return err
	}
	for i, v := range gaussian {
		env[i] = envAbs(v)
	}
	return nil
}

// GenerateBatchInto implements Method via the shared chunked ColorBlock path.
func (c *CholeskyColoring) GenerateBatchInto(root *randx.RNG, gaussian [][]complex128, env [][]float64) error {
	return c.batch.generateBatch(c.n, root, gaussian, env)
}

// RealtimeColoring implements Method: the Cholesky factor colors the Doppler
// panel directly.
func (c *CholeskyColoring) RealtimeColoring() (*cmplxmat.Matrix, bool, error) {
	if c.factor == nil {
		return nil, false, fmt.Errorf("baseline: RealtimeColoring before successful Setup: %w", ErrSetupFailed)
	}
	return c.factor, false, nil
}

// NatarajanColoring is the Natarajan–Nassar–Chandrasekhar [5] generator:
// Cholesky coloring with arbitrary powers, but — as the paper points out —
// the covariances of the complex Gaussians are forced to be real (Eq. (8) of
// [5]). For covariance matrices with genuinely complex off-diagonal entries
// (time-delay/frequency-separation correlation, or spatial correlation off
// broadside) this discards the imaginary parts and biases the result.
type NatarajanColoring struct {
	factor *cmplxmat.Matrix
	n      int
	w      []complex128 // GenerateInto scratch
	batch  colorBatch
}

// Name implements Method.
func (c *NatarajanColoring) Name() string { return "real-forced cholesky (Natarajan et al. 2000)" }

// Setup implements Method.
func (c *NatarajanColoring) Setup(k *cmplxmat.Matrix) error {
	if err := validateCovariance(k); err != nil {
		return err
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
		return fmt.Errorf("%w: %v", ErrSetupFailed, err)
	}
	c.factor = l
	c.n = n
	c.w = make([]complex128, n)
	c.batch.reset(l, false)
	return nil
}

// Generate implements Method, routing through GenerateInto so the two paths
// produce bit-identical values from the same stream.
func (c *NatarajanColoring) Generate(rng *randx.RNG) ([]complex128, error) {
	if c.factor == nil {
		return nil, fmt.Errorf("baseline: Generate before successful Setup: %w", ErrSetupFailed)
	}
	out := make([]complex128, c.n)
	env := make([]float64, c.n)
	if err := c.GenerateInto(rng, out, env); err != nil {
		return nil, err
	}
	return out, nil
}

// N implements Method.
func (c *NatarajanColoring) N() int { return c.n }

// GenerateInto implements Method.
func (c *NatarajanColoring) GenerateInto(rng *randx.RNG, gaussian []complex128, env []float64) error {
	if c.factor == nil {
		return fmt.Errorf("baseline: GenerateInto before successful Setup: %w", ErrSetupFailed)
	}
	if err := checkIntoDst(c.n, gaussian, env); err != nil {
		return err
	}
	rng.FillComplexNormal(c.w, 1)
	if err := cmplxmat.MulVecInto(gaussian, c.factor, c.w); err != nil {
		return err
	}
	for i, v := range gaussian {
		env[i] = envAbs(v)
	}
	return nil
}

// GenerateBatchInto implements Method via the shared chunked ColorBlock path.
func (c *NatarajanColoring) GenerateBatchInto(root *randx.RNG, gaussian [][]complex128, env [][]float64) error {
	return c.batch.generateBatch(c.n, root, gaussian, env)
}

// RealtimeColoring implements Method: the real-forced Cholesky factor colors
// the Doppler panel, so the real-time stream carries the same Re(K) bias as
// the snapshot mode.
func (c *NatarajanColoring) RealtimeColoring() (*cmplxmat.Matrix, bool, error) {
	if c.factor == nil {
		return nil, false, fmt.Errorf("baseline: RealtimeColoring before successful Setup: %w", ErrSetupFailed)
	}
	return c.factor, false, nil
}

// ErtelReedPair is the Ertel & Reed [2] generator for exactly two
// equal-power envelopes with a real cross-correlation coefficient: the
// second branch is built as z2 = ρ·z1 + sqrt(1−ρ²)·w. Anything else —
// N ≠ 2, unequal powers or a complex correlation — is unsupported.
type ErtelReedPair struct {
	power float64
	rho   float64
	ready bool
	rng   *randx.RNG // reseeded for every batch chunk
}

// Name implements Method.
func (c *ErtelReedPair) Name() string { return "two-branch (Ertel–Reed 1998)" }

// Setup implements Method.
func (c *ErtelReedPair) Setup(k *cmplxmat.Matrix) error {
	if err := validateCovariance(k); err != nil {
		return err
	}
	if k.Rows() != 2 {
		return fmt.Errorf("baseline: Ertel–Reed supports exactly 2 envelopes, got %d: %w", k.Rows(), ErrUnsupported)
	}
	if !equalDiagonal(k, 1e-9) {
		return fmt.Errorf("baseline: Ertel–Reed requires equal powers: %w", ErrUnsupported)
	}
	offDiag := k.At(0, 1)
	if imagAbs(offDiag) > 1e-9*maxScale(k) {
		return fmt.Errorf("baseline: Ertel–Reed requires a real correlation coefficient: %w", ErrUnsupported)
	}
	power := real(k.At(0, 0))
	rho := real(offDiag) / power
	if rho < -1 || rho > 1 {
		return fmt.Errorf("baseline: correlation coefficient %g outside [-1, 1]: %w", rho, ErrSetupFailed)
	}
	c.power = power
	c.rho = rho
	c.ready = true
	if c.rng == nil {
		c.rng = randx.New(0)
	}
	return nil
}

// Generate implements Method.
func (c *ErtelReedPair) Generate(rng *randx.RNG) ([]complex128, error) {
	if !c.ready {
		return nil, fmt.Errorf("baseline: Generate before successful Setup: %w", ErrSetupFailed)
	}
	z1 := rng.ComplexNormal(c.power)
	w := rng.ComplexNormal(c.power)
	z2 := complex(c.rho, 0)*z1 + complex(sqrt1m(c.rho), 0)*w
	return []complex128{z1, z2}, nil
}

// N implements Method.
func (c *ErtelReedPair) N() int {
	if !c.ready {
		return 0
	}
	return 2
}

// GenerateInto implements Method, drawing the same sequence as Generate.
func (c *ErtelReedPair) GenerateInto(rng *randx.RNG, gaussian []complex128, env []float64) error {
	if !c.ready {
		return fmt.Errorf("baseline: GenerateInto before successful Setup: %w", ErrSetupFailed)
	}
	if err := checkIntoDst(2, gaussian, env); err != nil {
		return err
	}
	z1 := rng.ComplexNormal(c.power)
	w := rng.ComplexNormal(c.power)
	gaussian[0] = z1
	gaussian[1] = complex(c.rho, 0)*z1 + complex(sqrt1m(c.rho), 0)*w
	env[0] = envAbs(gaussian[0])
	env[1] = envAbs(gaussian[1])
	return nil
}

// GenerateBatchInto implements Method. The two-branch recursion is scalar, so
// the batched path is a direct chunked loop (no GEMM panel) with the same
// per-chunk stream derivation as the coloring-based methods.
func (c *ErtelReedPair) GenerateBatchInto(root *randx.RNG, gaussian [][]complex128, env [][]float64) error {
	if !c.ready {
		return fmt.Errorf("baseline: GenerateBatchInto before successful Setup: %w", ErrSetupFailed)
	}
	if err := checkBatchDst(2, gaussian, env); err != nil {
		return err
	}
	for lo := 0; lo < len(gaussian); lo += batchChunkSize {
		hi := min(lo+batchChunkSize, len(gaussian))
		c.rng.Reseed(root.SplitSeed())
		for i := lo; i < hi; i++ {
			// GenerateInto cannot fail: readiness and shapes were checked.
			_ = c.GenerateInto(c.rng, gaussian[i], env[i])
		}
	}
	return nil
}

// RealtimeColoring implements Method: the two-branch recursion
// z2 = ρ·z1 + sqrt(1−ρ²)·w is the lower-triangular coloring
// sqrt(p)·[[1, 0], [ρ, sqrt(1−ρ²)]], which colors the Doppler panel directly.
func (c *ErtelReedPair) RealtimeColoring() (*cmplxmat.Matrix, bool, error) {
	if !c.ready {
		return nil, false, fmt.Errorf("baseline: RealtimeColoring before successful Setup: %w", ErrSetupFailed)
	}
	s := math.Sqrt(c.power)
	return cmplxmat.MustFromRows([][]complex128{
		{complex(s, 0), 0},
		{complex(c.rho*s, 0), complex(sqrt1m(c.rho)*s, 0)},
	}), false, nil
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
