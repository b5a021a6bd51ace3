package rayleigh

import (
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/baseline"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/doppler"
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

// Generation method names accepted by Config.Method, RealTimeConfig.Method
// and NewWithMethod: the paper's generalized algorithm (the default) and the
// five conventional methods its introduction reviews. Each method's
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

// MethodInfo describes one generation backend.
type MethodInfo struct {
	// Name is the Config.Method value.
	Name string
	// Title is the human-readable method name.
	Title string
	// Citation names the source in the paper's reference list.
	Citation string
	// Constraints summarizes the configurations the method supports.
	Constraints string
	// Defects summarizes the accuracy losses the paper attributes to the
	// method on configurations it does accept (empty when none).
	Defects string
}

// Methods returns the catalog of generation backends, generalized first.
func Methods() []MethodInfo {
	infos := chanspec.Methods()
	out := make([]MethodInfo, len(infos))
	for i, m := range infos {
		out[i] = MethodInfo{
			Name:        m.Name,
			Title:       m.Title,
			Citation:    m.Citation,
			Constraints: m.Constraints,
			Defects:     m.Defects,
		}
	}
	return out
}

// Snapshot is one independent draw: N correlated complex Gaussian samples and
// their moduli, the Rayleigh envelopes.
type Snapshot struct {
	// Gaussian holds the correlated zero-mean complex Gaussian samples z_j.
	Gaussian []complex128
	// Envelopes holds the Rayleigh envelopes r_j = |z_j|.
	Envelopes []float64
}

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
// A Generator is not safe for concurrent use: its methods share internal
// scratch, so drive each Generator from one goroutine at a time (the
// SnapshotsInto worker fan-out stays inside a single call and is fine).
// Concurrent hosts wanting shared deterministic output should give each
// goroutine its own Generator built from the same Config, or use Stream for
// the real-time block sequence.
type Generator struct {
	backend backend.Backend
	workers int
	batch   []core.Snapshot // reusable header scratch for SnapshotsInto
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
	// Parallel is the worker count of the batched generation path
	// (SnapshotsInto). Values <= 1 select the sequential path. The output of a
	// seeded run is bit-identical for every setting, including sequential:
	// each chunk of work draws from its own stream derived deterministically
	// from the seed before any generation starts, so the schedule cannot leak
	// into the values. The conventional methods' batched paths are sequential
	// and ignore it.
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

// New builds a Generator for the desired covariance matrix.
func New(cfg Config) (*Generator, error) {
	k, err := toMatrix(cfg.Covariance)
	if err != nil {
		return nil, err
	}
	b, err := backend.NewWithFading(cfg.Method, cfg.Fading, fadingSpecParams(cfg.FadingParams), k, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return &Generator{backend: b, workers: cfg.Parallel}, nil
}

// NewWithMethod builds a Generator that realizes cfg through the named
// generation method, overriding cfg.Method. It is shorthand for setting
// Config.Method; the method vocabulary is the Method* constants.
func NewWithMethod(method string, cfg Config) (*Generator, error) {
	cfg.Method = method
	return New(cfg)
}

// PowersConfig configures a Generator built from a correlation-coefficient
// matrix of the complex Gaussians and desired envelope variances (the
// paper's "start from envelope powers" entry point, Eq. (11)).
type PowersConfig struct {
	// Correlation is the N×N correlation-coefficient matrix ρ of the complex
	// Gaussian processes.
	Correlation [][]complex128
	// EnvelopeVariances holds the desired Rayleigh envelope variances σr²_j,
	// one per envelope.
	EnvelopeVariances []float64
	// Seed seeds the random stream (same semantics as Config.Seed).
	Seed int64
	// Parallel is the worker count of the batched generation path (same
	// semantics as Config.Parallel: output is bit-identical for every
	// setting).
	Parallel int
	// Method selects the generation backend (same semantics as
	// Config.Method). Note the conventional equal-power-only methods reject
	// unequal envelope variances here — the restriction the Eq. (11) entry
	// point exists to lift.
	Method string
	// Fading selects the envelope model (same semantics as Config.Fading:
	// snapshot modes reject FadingNonstationaryDoppler).
	Fading string
	// FadingParams carries the selected fading model's parameters (same
	// semantics as Config.FadingParams).
	FadingParams *FadingParams
}

// NewFromPowers builds a Generator from envelope-power parameters, applying
// the Eq. (11) conversion internally to enable unequal envelope powers.
func NewFromPowers(cfg PowersConfig) (*Generator, error) {
	rho, err := toMatrix(cfg.Correlation)
	if err != nil {
		return nil, err
	}
	k, err := core.CovarianceFromEnvelopePowers(rho, cfg.EnvelopeVariances)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	b, err := backend.NewWithFading(cfg.Method, cfg.Fading, fadingSpecParams(cfg.FadingParams), k, cfg.Seed)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return &Generator{backend: b, workers: cfg.Parallel}, nil
}

// N returns the number of envelopes per snapshot.
func (g *Generator) N() int { return g.backend.N() }

// Method returns the canonical name of the generation backend in use.
func (g *Generator) Method() string { return g.backend.Method() }

// Snapshot draws one independent snapshot.
func (g *Generator) Snapshot() Snapshot {
	n := g.backend.N()
	s := Snapshot{Gaussian: make([]complex128, n), Envelopes: make([]float64, n)}
	// GenerateInto cannot fail: the destination lengths match by construction.
	_ = g.backend.GenerateInto(s.Gaussian, s.Envelopes)
	return s
}

// Snapshots draws count independent snapshots.
func (g *Generator) Snapshots(count int) ([]Snapshot, error) {
	if count <= 0 {
		return nil, fmt.Errorf("rayleigh: snapshot count %d must be positive: %w", count, ErrInvalidConfig)
	}
	out := make([]Snapshot, count)
	for i := range out {
		out[i] = g.Snapshot()
	}
	return out, nil
}

// SnapshotsInto fills dst with len(dst) independent snapshots, reusing the
// Gaussian/Envelopes storage of every entry that already has length N (entries
// with missing or wrong-length slices are allocated). This is the streaming
// counterpart of Snapshots for long-running simulations: with pre-shaped
// destinations the per-sample heap traffic is amortized O(1) (a handful of
// stream derivations per 64-snapshot chunk, nothing per sample).
//
// When Config.Parallel > 1 the chunks fan out across that many workers; the
// output is bit-identical for every worker count. The batched path draws from
// chunk streams derived from the seed, so it reproduces other batched runs,
// not an element-wise sequence of Snapshot calls.
func (g *Generator) SnapshotsInto(dst []Snapshot) error {
	if cap(g.batch) < len(dst) {
		g.batch = make([]core.Snapshot, len(dst))
	}
	batch := g.batch[:len(dst)]
	for i := range dst {
		batch[i] = core.Snapshot{Gaussian: dst[i].Gaussian, Envelopes: dst[i].Envelopes}
	}
	if err := g.backend.GenerateBatchInto(batch, g.workers); err != nil {
		return fmt.Errorf("rayleigh: %w", err)
	}
	for i := range dst {
		dst[i] = Snapshot{Gaussian: batch[i].Gaussian, Envelopes: batch[i].Envelopes}
		// Drop the scratch's reference so the generator does not pin the
		// caller's sample storage beyond the call.
		batch[i] = core.Snapshot{}
	}
	return nil
}

// Diagnostics reports the covariance conditioning applied at construction.
// Only the generalized method forces positive semi-definiteness; for the
// conventional backends — which reject unsupported targets instead of
// conditioning them — the zero value is returned.
func (g *Generator) Diagnostics() Diagnostics {
	f := g.backend.Diagnostics()
	if f == nil {
		return Diagnostics{}
	}
	return diagnosticsFromForced(f)
}

// RealTime produces blocks of time-correlated envelopes: the cross-envelope
// covariance follows the desired matrix while each envelope's
// autocorrelation follows the Jakes model J0(2π·fm·d) (Section 5, Fig. 3 of
// the paper).
//
// A RealTime generator is not safe for concurrent use: its methods share
// internal scratch, so drive each generator from one goroutine at a time
// (the BlocksInto worker fan-out stays inside a single call and is fine).
// Servers and other concurrent hosts should use Stream, whose cursors
// generate the same block sequence without shared state.
type RealTime struct {
	inner   *core.RealTimeGenerator
	workers int
	scratch core.Block   // header scratch for BlockInto
	blocks  []core.Block // backing structs for BlocksInto
	views   []*core.Block
	seen    map[*Block]int // reused per BlocksInto call for alias detection
}

// RealTimeConfig configures a RealTime generator.
type RealTimeConfig struct {
	// Covariance is the desired covariance matrix of the complex Gaussian
	// processes (same semantics as Config.Covariance).
	Covariance [][]complex128
	// IDFTPoints is M, the block length in samples (and IDFT size) of each
	// Young–Beaulieu Doppler generator. The paper's evaluation uses 4096.
	IDFTPoints int
	// NormalizedDoppler is fm = Fm/Fs, the maximum Doppler shift divided by
	// the sampling rate; it must lie in (0, 0.5). The paper's evaluation uses
	// 0.05 (Fm = 50 Hz at Fs = 1 kHz).
	NormalizedDoppler float64
	// InputVariance is σ²_orig of the Gaussian sequences feeding the Doppler
	// filters; zero selects the paper's 1/2. The output statistics do not
	// depend on it because the whitening step uses the measured filter gain.
	InputVariance float64
	// Seed seeds the random streams.
	Seed int64
	// Parallel is the worker count of BlocksInto. Values <= 1 generate on
	// the calling goroutine; the output of a seeded run is bit-identical for
	// every setting because block k is a pure function of the configuration
	// and k.
	Parallel int
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
	// configuration and k, bit-identical for every worker count.
	Fading string
	// FadingParams carries the selected fading model's parameters; nil is
	// valid only for FadingRayleigh.
	FadingParams *FadingParams
}

// Block is one block of M consecutive time samples for each of the N
// envelopes.
type Block struct {
	// Gaussian[j][l] is the complex Gaussian of envelope j at time sample l.
	Gaussian [][]complex128
	// Envelopes[j][l] is the Rayleigh envelope |Gaussian[j][l]|.
	Envelopes [][]float64
}

// NewRealTime builds a RealTime generator.
func NewRealTime(cfg RealTimeConfig) (*RealTime, error) {
	coreCfg, err := realtimeCoreConfig(cfg)
	if err != nil {
		return nil, err
	}
	inner, err := core.NewRealTimeGenerator(coreCfg)
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return &RealTime{inner: inner, workers: cfg.Parallel}, nil
}

// realtimeCoreConfig resolves a public real-time configuration into the core
// one, threading the selected method's coloring construction (and, for the
// Sorooshyari–Daut backend, its unit-variance whitening assumption) into the
// Section 5 combination.
func realtimeCoreConfig(cfg RealTimeConfig) (core.RealTimeConfig, error) {
	k, err := toMatrix(cfg.Covariance)
	if err != nil {
		return core.RealTimeConfig{}, err
	}
	coloring, assumeUnit, err := backend.RealtimeOverride(cfg.Method, k)
	if err != nil {
		return core.RealTimeConfig{}, fmt.Errorf("rayleigh: %w", err)
	}
	specParams := fadingSpecParams(cfg.FadingParams)
	if err := chanspec.ValidateFading(cfg.Fading, specParams); err != nil {
		return core.RealTimeConfig{}, fmt.Errorf("rayleigh: %w", err)
	}
	var segments []core.DopplerSegment
	if chanspec.NormalizeFading(cfg.Fading) == chanspec.FadingNonstationaryDoppler {
		if cfg.NormalizedDoppler != 0 {
			return core.RealTimeConfig{}, fmt.Errorf(
				"rayleigh: fading %q carries per-segment Doppler; NormalizedDoppler must be zero, got %g: %w",
				cfg.Fading, cfg.NormalizedDoppler, ErrInvalidConfig)
		}
		segments = make([]core.DopplerSegment, len(cfg.FadingParams.Segments))
		for i, s := range cfg.FadingParams.Segments {
			segments[i] = core.DopplerSegment{Blocks: s.Blocks, NormalizedDoppler: s.NormalizedDoppler}
		}
	}
	transform, err := backend.Transform(cfg.Fading, specParams, k, cfg.Seed)
	if err != nil {
		return core.RealTimeConfig{}, fmt.Errorf("rayleigh: %w", err)
	}
	return core.RealTimeConfig{
		Covariance:         k,
		Filter:             doppler.FilterSpec{M: cfg.IDFTPoints, NormalizedDoppler: cfg.NormalizedDoppler},
		InputVariance:      cfg.InputVariance,
		Seed:               cfg.Seed,
		Coloring:           coloring,
		AssumeUnitVariance: assumeUnit,
		Transform:          transform,
		DopplerSegments:    segments,
	}, nil
}

// N returns the number of envelopes.
func (r *RealTime) N() int { return r.inner.N() }

// BlockLength returns the number of time samples per block.
func (r *RealTime) BlockLength() int { return r.inner.BlockLength() }

// SampleVariance returns the σ²_g used in the whitening step: the Doppler
// filter output variance of Eq. (19), or 1 under the Sorooshyari–Daut
// backend's unit-variance assumption.
func (r *RealTime) SampleVariance() float64 { return r.inner.SampleVariance() }

// Block generates the next block of time-correlated envelopes. Block,
// BlockInto and BlocksInto share one position, so any mix of them walks the
// block sequence a Stream serves.
func (r *RealTime) Block() Block {
	b := r.inner.GenerateBlock()
	return Block{Gaussian: b.Gaussian, Envelopes: b.Envelopes}
}

// BlockInto generates the next block into b, reusing its storage when it
// already holds N rows of BlockLength samples (an empty or wrong-shaped block
// is [re]allocated in place). It produces the values Block would; with a
// pre-shaped destination and a power-of-two IDFT length the call performs no
// steady-state heap allocation.
// This is the streaming API for feeding live channel simulators sample block
// by sample block.
func (r *RealTime) BlockInto(b *Block) error {
	if b == nil {
		return fmt.Errorf("rayleigh: nil destination block: %w", ErrInvalidConfig)
	}
	r.scratch.Gaussian, r.scratch.Envelopes = b.Gaussian, b.Envelopes
	if err := r.inner.GenerateBlockInto(&r.scratch); err != nil {
		return fmt.Errorf("rayleigh: %w", err)
	}
	b.Gaussian, b.Envelopes = r.scratch.Gaussian, r.scratch.Envelopes
	r.scratch.Gaussian, r.scratch.Envelopes = nil, nil
	return nil
}

// BlocksInto fills dst with the next len(dst) blocks, reusing the storage of
// every pre-shaped entry; nil entries are replaced by freshly allocated
// blocks, and duplicate non-nil pointers are rejected with ErrInvalidConfig
// (aliased entries would silently clobber each other). When
// RealTimeConfig.Parallel > 1 the blocks fan out across that many workers,
// each with its own GEMM panels, and the output is bit-identical for every
// worker count. With pre-shaped entries and Parallel <= 1 the call performs
// no steady-state heap allocation.
func (r *RealTime) BlocksInto(dst []*Block) error {
	if len(dst) == 0 {
		return fmt.Errorf("rayleigh: empty block destination: %w", ErrInvalidConfig)
	}
	if r.seen == nil {
		r.seen = make(map[*Block]int, len(dst))
	}
	clear(r.seen)
	for i, b := range dst {
		if b == nil {
			continue
		}
		if j, dup := r.seen[b]; dup {
			// A duplicate pointer would silently lose block j: both entries
			// alias one Block, so the later fill clobbers the earlier one.
			return fmt.Errorf("rayleigh: destination blocks %d and %d alias the same *Block: %w", j, i, ErrInvalidConfig)
		}
		r.seen[b] = i
	}
	if cap(r.blocks) < len(dst) {
		r.blocks = make([]core.Block, len(dst))
		r.views = make([]*core.Block, len(dst))
		for i := range r.blocks {
			r.views[i] = &r.blocks[i]
		}
	}
	blocks := r.blocks[:len(dst)]
	views := r.views[:len(dst)]
	for i, b := range dst {
		if b == nil {
			b = &Block{}
			dst[i] = b
		}
		blocks[i].Gaussian, blocks[i].Envelopes = b.Gaussian, b.Envelopes
	}
	if err := r.inner.GenerateBlocksInto(views, r.workers); err != nil {
		return fmt.Errorf("rayleigh: %w", err)
	}
	for i, b := range dst {
		b.Gaussian, b.Envelopes = blocks[i].Gaussian, blocks[i].Envelopes
		// Drop the scratch's reference so the generator does not pin the
		// caller's block storage beyond the call.
		blocks[i] = core.Block{}
	}
	return nil
}

// TheoreticalAutocorrelation returns the designed per-envelope normalized
// autocorrelation J0(2π·fm·lag). Under FadingNonstationaryDoppler it reports
// the first trajectory segment; use TheoreticalAutocorrelationAt for later
// blocks.
func (r *RealTime) TheoreticalAutocorrelation(lag int) float64 {
	return r.inner.TheoreticalAutocorrelation(lag)
}

// TheoreticalAutocorrelationAt returns the designed normalized
// autocorrelation J0(2π·fm·lag) of the trajectory segment covering the given
// block. Without FadingNonstationaryDoppler every block reports the single
// configured Doppler.
func (r *RealTime) TheoreticalAutocorrelationAt(block uint64, lag int) float64 {
	return r.inner.TheoreticalAutocorrelationAt(block, lag)
}

// Diagnostics reports the covariance conditioning applied at construction.
func (r *RealTime) Diagnostics() Diagnostics {
	return diagnosticsFromForced(r.inner.Diagnostics())
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

// diagnosticsFromForced converts the internal forcing record.
func diagnosticsFromForced(f *core.ForcedPSD) Diagnostics {
	vals := make([]float64, len(f.Eigenvalues))
	copy(vals, f.Eigenvalues)
	return Diagnostics{
		Eigenvalues:        vals,
		ClampedEigenvalues: f.NumClamped,
		ApproximationError: f.FrobeniusError,
	}
}
