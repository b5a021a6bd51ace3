package rayleigh

import (
	"errors"
	"fmt"
	"math/cmplx"

	"repro/internal/baseline"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/doppler"
	"repro/internal/fading"
)

// ErrInvalidConfig reports an invalid public-API configuration.
var ErrInvalidConfig = errors.New("rayleigh: invalid configuration")

// ErrMethodUnsupported reports that the selected generation method cannot
// handle the requested configuration — the shortcoming the paper attributes
// to it (unequal powers under Salz–Winters, N ≠ 2 or a complex correlation
// under Ertel–Reed). It never fires for the default generalized method.
var ErrMethodUnsupported = baseline.ErrUnsupported

// ErrMethodSetup reports that the selected generation method's decomposition
// rejected the covariance matrix — typically Cholesky on a target that is not
// positive definite, the restriction the generalized method's zero-clamp
// forcing removes.
var ErrMethodSetup = baseline.ErrSetupFailed

// Generation method names accepted by Config.Method and
// RealTimeConfig.Method: the paper's generalized algorithm (the default) and
// the five conventional methods its introduction reviews. Each method's
// constraints and failure classes are catalogued in docs/methods.md and by
// Methods.
const (
	MethodGeneralized     = chanspec.MethodGeneralized
	MethodSalzWinters     = chanspec.MethodSalzWinters
	MethodErtelReed       = chanspec.MethodErtelReed
	MethodBeaulieuMerani  = chanspec.MethodBeaulieuMerani
	MethodNatarajan       = chanspec.MethodNatarajan
	MethodSorooshyariDaut = chanspec.MethodSorooshyariDaut
)

// MethodInfo describes one generation method: its Name (the Config.Method
// value), Title, the Citation in the paper's reference list, the
// Constraints on the configurations it supports and the Defects the paper
// attributes to it on configurations it accepts (empty when none). It is the
// spec type chanspec.MethodInfo that fadingd's /v1/methods endpoint serves.
type MethodInfo = chanspec.MethodInfo

// Methods returns the catalog of generation backends, generalized first.
// Each call builds a fresh slice, so the caller may modify it.
func Methods() []MethodInfo { return chanspec.Methods() }

// Snapshot is one independent draw: Gaussian holds the N correlated
// zero-mean complex Gaussian samples z_j and Envelopes their moduli, the
// Rayleigh envelopes r_j = |z_j|. It is the engine's snapshot type, so
// SnapshotsInto fills a caller's slice with no copy.
type Snapshot = core.Snapshot

// Diagnostics reports how the desired covariance matrix was conditioned
// before coloring.
type Diagnostics struct {
	// Eigenvalues of the desired covariance matrix, ascending.
	Eigenvalues []float64
	// ClampedEigenvalues is the number of negative eigenvalues replaced by
	// exactly zero (the positive semi-definiteness forcing of the paper).
	ClampedEigenvalues int
	// ApproximationError is the Frobenius distance between the desired
	// covariance matrix and its forced positive semi-definite approximation;
	// zero when the desired matrix was already positive semi-definite.
	ApproximationError float64
}

// Generator produces independent snapshots of N correlated Rayleigh fading
// envelopes. The default backend is the paper's generalized algorithm
// (Section 4.4); Config.Method swaps in one of the conventional methods,
// which keep their documented constraints and failure classes.
//
// A seeded Generator draws one snapshot sequence: snapshot i depends only on
// the Config and i. SnapshotsInto(dst) therefore equals len(dst) calls of
// Snapshot, for any Config.Parallel and however the draws are split into
// calls.
//
// A Generator is not safe for concurrent use: its methods share internal
// scratch, so drive each Generator from one goroutine at a time (the
// SnapshotsInto worker fan-out stays inside a single call and is fine).
// Concurrent hosts wanting shared deterministic output should give each
// goroutine its own Generator built from the same Config, or use Stream for
// the real-time block sequence.
type Generator struct {
	gen     *core.SnapshotGenerator
	method  string
	workers int
}

// Config configures a Generator built directly from a covariance matrix.
type Config struct {
	// Covariance is the desired N×N covariance matrix of the complex
	// Gaussian processes, row by row. It must be Hermitian; under the default
	// generalized method it does not need to be positive definite or even
	// positive semi-definite (conventional methods are pickier — see Methods).
	Covariance [][]complex128
	// Seed seeds the random stream. The same seed reproduces the same
	// sequence of snapshots.
	Seed int64
	// Parallel is the worker count of SnapshotsInto. Values <= 1 select the
	// sequential path. The output of a seeded run is bit-identical for every
	// setting, and SnapshotsInto(dst) equals len(dst) calls of Snapshot:
	// snapshots are colored in chunks of 64, each chunk drawing from its own
	// stream indexed by its position, so neither the schedule nor the split
	// into calls can leak into the values. Every method, conventional or
	// generalized, runs the same path and honors it.
	Parallel int
	// Method selects the generation backend by its spec name (one of the
	// Method* constants); empty selects MethodGeneralized. Conventional
	// methods reject configurations outside their vocabulary with
	// ErrMethodUnsupported or ErrMethodSetup at construction.
	Method string
	// Fading selects the envelope model by its spec name (one of the Fading*
	// constants); empty selects FadingRayleigh. The composite models are
	// applied per draw on top of the selected method's correlated Gaussians;
	// FadingNonstationaryDoppler needs a time axis and is rejected here — use
	// RealTimeConfig. The model vocabulary is catalogued by Models.
	Fading string
	// FadingParams carries the selected fading model's parameters; nil is
	// valid only for FadingRayleigh.
	FadingParams *FadingParams
}

// New builds a Generator for the desired covariance matrix. It is the one
// snapshot constructor: Config.Method selects the backend, and
// CovarianceFromEnvelopePowers builds Config.Covariance from envelope powers.
// The generator colors with the method's coloring matrix and applies the
// fading model's sample transform to every draw, at the draw's position in
// the one sequence, so batched and single draws shadow identically.
func New(cfg Config) (*Generator, error) {
	k, err := toMatrix(cfg.Covariance)
	if err != nil {
		return nil, err
	}
	if chanspec.NormalizeFading(cfg.Fading) == chanspec.FadingNonstationaryDoppler {
		return nil, fmt.Errorf("rayleigh: fading %q needs a real-time block mode (snapshots have no time axis): %w",
			cfg.Fading, chanspec.ErrBadSpec)
	}
	coloring, _, err := methodColoring(cfg.Method, k)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	tr, err := fadingTransform(cfg.Fading, cfg.FadingParams, k, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	gen, err := core.NewSnapshotGenerator(core.SnapshotConfig{Covariance: k, Seed: cfg.Seed, Coloring: coloring, Transform: tr})
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return &Generator{gen: gen, method: chanspec.NormalizeMethod(cfg.Method), workers: cfg.Parallel}, nil
}

// CovarianceFromEnvelopePowers builds the covariance matrix whose Rayleigh
// envelopes have the variances σr²_j, given the correlation-coefficient
// matrix ρ of the complex Gaussians: the paper's "start from envelope
// powers" entry point. The Gaussian powers follow Eq. (11) and the
// off-diagonal covariances are ρ_{k,j}·σg_k·σg_j. The result goes into
// Config.Covariance or RealTimeConfig.Covariance. Note the conventional
// equal-power-only methods reject the unequal powers this conversion exists
// to allow.
func CovarianceFromEnvelopePowers(correlation [][]complex128, envelopeVariances []float64) ([][]complex128, error) {
	rho, err := toMatrix(correlation)
	if err != nil {
		return nil, err
	}
	k, err := core.CovarianceFromEnvelopePowers(rho, envelopeVariances)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return k.ToRows(), nil
}

// N returns the number of envelopes per snapshot.
func (g *Generator) N() int { return g.gen.N() }

// Method returns the canonical name of the generation backend in use.
func (g *Generator) Method() string { return g.method }

// Snapshot draws the next snapshot of the sequence.
func (g *Generator) Snapshot() Snapshot { return g.gen.Generate() }

// SnapshotsInto fills dst with the next len(dst) snapshots, reusing the
// Gaussian/Envelopes storage of every entry that already has length N
// (entries with missing or wrong-length slices are allocated). It equals
// len(dst) calls of Snapshot, for any Config.Parallel and any split of the
// draws into calls. For long-running simulations it is the steady-state
// loop: once the destinations are shaped, the sequential path allocates
// nothing, and each 64-snapshot chunk is colored by one matrix-matrix
// product.
//
// When Config.Parallel > 1 the chunks fan out across that many workers; the
// output is bit-identical for every worker count.
func (g *Generator) SnapshotsInto(dst []Snapshot) error {
	if err := g.gen.GenerateBatchInto(dst, g.workers); err != nil {
		return fmt.Errorf("rayleigh: %w", err)
	}
	return nil
}

// Diagnostics reports the covariance conditioning applied at construction.
// Only the generalized method forces positive semi-definiteness; for the
// conventional backends — which reject unsupported targets or apply their own
// approximation instead — the zero value is returned.
func (g *Generator) Diagnostics() Diagnostics {
	return diagnosticsFromForced(g.gen.Diagnostics())
}

// RealTimeConfig configures a Stream, the real-time mode.
type RealTimeConfig struct {
	// Covariance is the desired covariance matrix of the complex Gaussian
	// processes (same semantics as Config.Covariance).
	Covariance [][]complex128
	// IDFTPoints is M, the block length in samples (and IDFT size) of each
	// Young–Beaulieu Doppler generator. It must be a power of two; the
	// paper's evaluation uses 4096.
	IDFTPoints int
	// NormalizedDoppler is fm = Fm/Fs, the maximum Doppler shift divided by
	// the sampling rate; it must lie in (0, 0.5). The paper's evaluation uses
	// 0.05 (Fm = 50 Hz at Fs = 1 kHz).
	NormalizedDoppler float64
	// InputVariance is σ²_orig of the Gaussian sequences feeding the Doppler
	// filters: zero selects the paper's 1/2, and any other value must be
	// finite and positive. The output statistics do not depend on it because
	// the whitening step uses the measured filter gain.
	InputVariance float64
	// Seed seeds the random streams.
	Seed int64
	// Method selects the generation backend (same vocabulary and failure
	// classes as Config.Method). A conventional method contributes its own
	// coloring matrix to the Section 5 combination — and, for
	// MethodSorooshyariDaut, its unit-variance whitening assumption, whose
	// covariance bias is the defect the paper corrects. docs/methods.md
	// documents each method's real-time semantics.
	Method string
	// Fading selects the envelope model (one of the Fading* constants; empty
	// selects FadingRayleigh). The per-sample models (Rician, Nakagami-m,
	// Suzuki) transform every generated sample; FadingNonstationaryDoppler
	// instead replans the Doppler spectrum per trajectory segment, in which
	// case NormalizedDoppler must be zero — FadingParams.Segments carries the
	// per-segment values. Either way block k stays a pure function of the
	// configuration and k, bit-identical from every cursor.
	Fading string
	// FadingParams carries the selected fading model's parameters; nil is
	// valid only for FadingRayleigh.
	FadingParams *FadingParams
}

// Block is one block of M consecutive time samples for each of the N
// envelopes: Gaussian[j][l] is the complex Gaussian of envelope j at time
// sample l and Envelopes[j][l] its envelope |Gaussian[j][l]|. It is the
// engine's block type, so a Cursor generates straight into the caller's
// Block.
type Block = core.Block

// realtimeCoreConfig resolves a public real-time configuration into the core
// one: the method's coloring and unit-variance whitening assumption (only
// Sorooshyari–Daut's is true), the fading model's sample transform and, for
// the nonstationary-Doppler model, its trajectory.
func realtimeCoreConfig(cfg RealTimeConfig) (core.RealTimeConfig, error) {
	k, err := toMatrix(cfg.Covariance)
	if err != nil {
		return core.RealTimeConfig{}, err
	}
	coloring, assumeUnit, err := methodColoring(cfg.Method, k)
	if err != nil {
		return core.RealTimeConfig{}, fmt.Errorf("rayleigh: %w", err)
	}
	tr, err := fadingTransform(cfg.Fading, cfg.FadingParams, k, cfg.Seed)
	if err != nil {
		return core.RealTimeConfig{}, fmt.Errorf("rayleigh: %w", err)
	}
	var segments []chanspec.DopplerSegment
	if chanspec.NormalizeFading(cfg.Fading) == chanspec.FadingNonstationaryDoppler {
		// fadingTransform validated the model, so FadingParams carries the
		// trajectory.
		segments = cfg.FadingParams.Segments
		if cfg.NormalizedDoppler != 0 {
			return core.RealTimeConfig{}, fmt.Errorf(
				"rayleigh: fading %q carries per-segment Doppler; NormalizedDoppler must be zero, got %g: %w",
				cfg.Fading, cfg.NormalizedDoppler, ErrInvalidConfig)
		}
	}
	return core.RealTimeConfig{
		Covariance:         k,
		Filter:             doppler.FilterSpec{M: cfg.IDFTPoints, NormalizedDoppler: cfg.NormalizedDoppler},
		InputVariance:      cfg.InputVariance,
		Seed:               cfg.Seed,
		AssumeUnitVariance: assumeUnit,
		Coloring:           coloring,
		Transform:          tr,
		DopplerSegments:    segments,
	}, nil
}

// The covariance scale window: a target whose largest entry magnitude
// max |K_ij| lies outside [minCovarianceScale, maxCovarianceScale] is
// rejected, the all-zero target excepted. EigenHermitian is exact under
// power-of-two scaling and needs no window; the PSD forcing error and the
// samples do. The forcing error ‖K − K̄‖_F sums unscaled squares: it
// overflows to +Inf near 1e154 and reads 0 for an indefinite target near
// 1e-170. The samples overflow near 1e308.
const (
	minCovarianceScale = 1e-100
	maxCovarianceScale = 1e100
)

// methodColoring resolves a method name into the coloring knobs both core
// engines take: the coloring-matrix override and the unit-variance
// assumption the method carries into the real-time combination of Section 5.
// The generalized method returns (nil, false): the engine's own eigen
// coloring applies. Every constructor passes through here, so this is where
// a target with a NaN or infinite entry, or one outside the covariance scale
// window, is rejected (chanspec.ErrBadSpec); the conventional methods' own
// rejections carry ErrMethodUnsupported or ErrMethodSetup.
func methodColoring(method string, k *cmplxmat.Matrix) (coloring *cmplxmat.Matrix, assumeUnitVariance bool, err error) {
	method = chanspec.NormalizeMethod(method)
	if err := chanspec.ValidateMethod(method); err != nil {
		return nil, false, err
	}
	for i := 0; i < k.Rows(); i++ {
		for j := 0; j < k.Cols(); j++ {
			if v := k.At(i, j); cmplx.IsNaN(v) || cmplx.IsInf(v) {
				return nil, false, fmt.Errorf("covariance entry (%d, %d) = %v is not finite: %w", i, j, v, chanspec.ErrBadSpec)
			}
		}
	}
	if s := cmplxmat.MaxAbs(k); s != 0 && (s < minCovarianceScale || s > maxCovarianceScale) {
		return nil, false, fmt.Errorf("covariance scale max |K_ij| = %g is outside [%g, %g]: %w",
			s, minCovarianceScale, maxCovarianceScale, chanspec.ErrBadSpec)
	}
	if method == chanspec.MethodGeneralized {
		return nil, false, nil
	}
	return baseline.Coloring(method, k)
}

// fadingTransform builds the fading model's sample transform for a target
// methodColoring accepted (nil for the Rayleigh default and the panel-level
// nonstationary model). The target's diagonal supplies the per-envelope mean
// powers Ω_j, one definition for snapshots and real-time blocks alike.
func fadingTransform(model string, params *FadingParams, k *cmplxmat.Matrix, seed int64) (fading.Transform, error) {
	powers := make([]float64, k.Rows())
	for j := range powers {
		powers[j] = real(k.At(j, j))
	}
	return fading.New(model, params, powers, seed)
}

// EnvelopePowerToGaussianPower converts a desired Rayleigh envelope variance
// σr² to the power σg² of the complex Gaussian producing it (Eq. (11)).
func EnvelopePowerToGaussianPower(envelopeVariance float64) (float64, error) {
	v, err := core.EnvelopePowerToGaussianPower(envelopeVariance)
	if err != nil {
		return 0, fmt.Errorf("rayleigh: %w", err)
	}
	return v, nil
}

// GaussianPowerToEnvelopeVariance inverts EnvelopePowerToGaussianPower
// (Eq. (15)).
func GaussianPowerToEnvelopeVariance(gaussianPower float64) (float64, error) {
	v, err := core.GaussianPowerToEnvelopeVariance(gaussianPower)
	if err != nil {
		return 0, fmt.Errorf("rayleigh: %w", err)
	}
	return v, nil
}

// ExpectedEnvelopeMean returns E{r} = 0.8862·σg for a complex Gaussian power
// σg² (Eq. (14)).
func ExpectedEnvelopeMean(gaussianPower float64) (float64, error) {
	v, err := core.ExpectedEnvelopeMean(gaussianPower)
	if err != nil {
		return 0, fmt.Errorf("rayleigh: %w", err)
	}
	return v, nil
}

// toMatrix validates and converts a row-major covariance matrix.
func toMatrix(rows [][]complex128) (*cmplxmat.Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("rayleigh: empty covariance matrix: %w", ErrInvalidConfig)
	}
	for i, r := range rows {
		if len(r) != len(rows) {
			return nil, fmt.Errorf("rayleigh: covariance row %d has %d entries, want %d: %w", i, len(r), len(rows), ErrInvalidConfig)
		}
	}
	m, err := cmplxmat.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return m, nil
}

// diagnosticsFromForced converts the internal forcing record; a nil record
// (no forcing applied) converts to the zero value.
func diagnosticsFromForced(f *core.ForcedPSD) Diagnostics {
	if f == nil {
		return Diagnostics{}
	}
	vals := make([]float64, len(f.Eigenvalues))
	copy(vals, f.Eigenvalues)
	return Diagnostics{
		Eigenvalues:        vals,
		ClampedEigenvalues: f.NumClamped,
		ApproximationError: f.FrobeniusError,
	}
}
