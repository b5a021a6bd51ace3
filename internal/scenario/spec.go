// Package scenario is the declarative workload harness of this repository:
// a scenario spec names a correlation model, a generation mode, sizes, a
// fixed seed, and a list of statistical assertions with explicit tolerances.
// The engine (Run) generates the requested fading samples, evaluates every
// assertion as a pass/fail gate, and reports the outcome as JSON and
// markdown artifacts. Specs are plain JSON files checked into scenarios/ at
// the repository root, so adding a workload — a new OFDM spacing, a MIMO
// array, an indefinite-covariance stress case — means writing a spec, not
// Go code. cmd/scenariorun drives the specs from the command line and CI;
// the paper's E3–E9 experiments are the specs tagged "paper".
//
// Everything is deterministic: a spec carries its own seed, the engine
// derives every stream from it, and the report contains no timestamps, so
// the same spec always produces byte-identical artifacts.
package scenario

import (
	"fmt"

	"repro/internal/chanspec"
)

// ErrBadSpec reports an invalid scenario specification. It is the shared
// chanspec sentinel, so model errors and spec errors match the same
// errors.Is target.
var ErrBadSpec = chanspec.ErrBadSpec

// Generation modes.
const (
	// ModeSnapshot draws independent snapshots one by one, one
	// Generator.Snapshot per draw (Section 4.4 of the paper).
	ModeSnapshot = "snapshot"
	// ModeBatched draws the same snapshots as ModeSnapshot through one call
	// of the zero-allocation batched path (Generator.SnapshotsInto), optionally
	// fanned out across Generation.Workers workers: a seeded snapshot
	// depends on its position only, so the two modes read one sequence.
	ModeBatched = "batched"
	// ModeRealtime generates blocks of time-correlated samples whose
	// per-envelope autocorrelation follows the Jakes model (Section 5).
	ModeRealtime = "realtime"
)

// Model types, re-exported from the shared chanspec vocabulary (the fadingd
// service speaks the same model language; see internal/chanspec).
const (
	ModelEq22        = chanspec.ModelEq22
	ModelIdentity    = chanspec.ModelIdentity
	ModelExplicit    = chanspec.ModelExplicit
	ModelExponential = chanspec.ModelExponential
	ModelConstant    = chanspec.ModelConstant
	ModelSpectral    = chanspec.ModelSpectral
	ModelSpatial     = chanspec.ModelSpatial
)

// ModelSpec parameterizes a correlation model; it is the shared
// chanspec.Model, extracted so scenarios and the streaming service share one
// builder.
type ModelSpec = chanspec.Model

// Complex is the shared [re, im] JSON complex type.
type Complex = chanspec.Complex

// Assertion types.
const (
	// AssertCovariance compares the sample covariance of the generated
	// complex Gaussians against the scenario's covariance target.
	AssertCovariance = "covariance"
	// AssertCovarianceDefect requires the covariance error to be AT LEAST a
	// floor — used to demonstrate a known-bad configuration (the
	// unit-variance assumption of [6] that Section 5 corrects).
	AssertCovarianceDefect = "covariance_defect"
	// AssertEnvelopeMoments checks the envelope mean and variance against
	// Eq. (14)–(15) applied to the (forced) covariance diagonal.
	AssertEnvelopeMoments = "envelope_moments"
	// AssertRayleighKS runs a Kolmogorov–Smirnov test of one envelope
	// against the theoretical Rayleigh distribution.
	AssertRayleighKS = "rayleigh_ks"
	// AssertRayleighChiSquare runs an equal-probability-bin chi-square test
	// of one envelope against the theoretical Rayleigh distribution.
	AssertRayleighChiSquare = "rayleigh_chisquare"
	// AssertAutocorrelation compares one envelope's lagged autocorrelation
	// against the Jakes model J0(2π·fm·d) (realtime mode only).
	AssertAutocorrelation = "autocorrelation"
	// AssertPSDForcing checks the positive semi-definiteness forcing
	// diagnostics (Section 4.2): clamped eigenvalue count, Frobenius error,
	// Cholesky-baseline failure, and the ε-clamp comparison of E6.
	AssertPSDForcing = "psd_forcing"
	// AssertIntoIdentity requires the allocating and the Into generation
	// paths to produce bit-identical output from the same seed, under the
	// spec's method and fading model: Snapshot vs SnapshotsInto into one
	// reused snapshot in snapshot modes, a fresh Block vs one reused
	// pre-shaped Block in realtime mode.
	AssertIntoIdentity = "into_identity"
	// AssertParallelIdentity requires the batched path to produce
	// bit-identical output at worker count 1 and at Workers.
	AssertParallelIdentity = "parallel_identity"
	// AssertComparison runs the scenario's covariance target through several
	// generation methods side by side (snapshot and batched modes): each
	// listed method must reach its expected outcome — constructing and
	// matching the target within tolerance, demonstrating a documented
	// covariance defect, or failing with its documented error class — and the
	// per-method measurements are emitted as the Result's deterministic
	// side-by-side comparison table.
	AssertComparison = "comparison"
	// AssertRicianK estimates one envelope's Rician K-factor by the moment
	// method K̂ = |μ|²/(E|z|² − |μ|²) and compares it against the spec's
	// model.params.k_factor within Tolerance (relative; absolute when the
	// configured K is zero). Requires the rician fading model.
	AssertRicianK = "rician_k"
	// AssertNakagamiKS runs a Kolmogorov–Smirnov test of one envelope against
	// the theoretical Nakagami-m distribution of shape model.params.m and the
	// envelope's Gaussian power Ω. Requires the nakagami_m fading model and
	// i.i.d. samples (snapshot or batched mode).
	AssertNakagamiKS = "nakagami_ks"
	// AssertSuzukiLogMoment checks one envelope's log-envelope moments against
	// the Suzuki composition: mean (10/ln10)(ln Ω − γ) dB within MeanTolerance
	// (absolute, dB) and variance (10/ln10)²π²/6 + shadow_sigma_db² dB² within
	// VarianceTolerance (absolute, dB²). Requires the suzuki fading model.
	AssertSuzukiLogMoment = "suzuki_logmoment"
	// AssertSegmentAutocorrelation compares one envelope's per-block lagged
	// autocorrelation, grouped by trajectory segment, against each segment's
	// own Jakes model J0(2π·fm_s·d) within Tolerance. Requires the
	// nonstationary_doppler fading model (realtime mode).
	AssertSegmentAutocorrelation = "segment_autocorrelation"
)

// Expected construction outcomes of a comparison assertion's method rows.
const (
	// OutcomeOK: the method accepts the configuration and generates.
	OutcomeOK = "ok"
	// OutcomeUnsupported: the method rejects the configuration as outside its
	// vocabulary (baseline.ErrUnsupported) — unequal powers under
	// Salz–Winters, N ≠ 2 or a complex correlation under Ertel–Reed.
	OutcomeUnsupported = "unsupported"
	// OutcomeSetupFailed: the method's decomposition rejects the target
	// (baseline.ErrSetupFailed) — Cholesky on a matrix that is not positive
	// definite, or Salz–Winters when its real 2N covariance is not positive
	// semi-definite.
	OutcomeSetupFailed = "setup_failed"
)

// MethodExpect is one row of a comparison assertion: a generation method and
// the outcome the scenario expects from it on this covariance target.
type MethodExpect struct {
	// Method is the spec method name (see internal/chanspec).
	Method string `json:"method"`
	// Outcome is the expected construction outcome; empty selects OutcomeOK.
	Outcome string `json:"outcome,omitempty"`
	// MaxAbsError bounds the entrywise sample-covariance error against the
	// scenario's (unforced) target for OK rows.
	MaxAbsError float64 `json:"max_abs_error,omitempty"`
	// MinAbsError demands a covariance defect of at least this size against
	// the target — the gate for methods that accept a configuration but are
	// documented to bias it (Natarajan on complex targets, Sorooshyari–Daut
	// on indefinite ones).
	MinAbsError float64 `json:"min_abs_error,omitempty"`
	// MeanTolerance and VarianceTolerance bound the relative envelope-moment
	// errors of envelope 0 against Eq. (14)–(15) for OK rows (zero skips the
	// check).
	MeanTolerance     float64 `json:"mean_tolerance,omitempty"`
	VarianceTolerance float64 `json:"variance_tolerance,omitempty"`
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario in reports and filters; it should be a
	// short kebab-case slug unique within the scenario directory.
	Name string `json:"name"`
	// Description says what the scenario covers and why it exists.
	Description string `json:"description,omitempty"`
	// Tags support filtering groups of scenarios (e.g. "ofdm", "stress").
	Tags []string `json:"tags,omitempty"`
	// Seed seeds every random stream of the run. Fixed per scenario so the
	// gates are deterministic.
	Seed int64 `json:"seed"`
	// Model selects and parameterizes the correlation model.
	Model ModelSpec `json:"model"`
	// Generation selects the generation mode and sizes.
	Generation GenerationSpec `json:"generation"`
	// Assertions is the gate list; every assertion must pass for the
	// scenario to pass. Order is preserved in reports.
	Assertions []AssertionSpec `json:"assertions"`
}

// GenerationSpec selects the generation mode and sizes.
type GenerationSpec struct {
	// Mode is one of the Mode* constants.
	Mode string `json:"mode"`
	// Draws is the number of independent snapshots (snapshot and batched
	// modes).
	Draws int `json:"draws,omitempty"`
	// Blocks is the number of consecutive real-time blocks (realtime mode).
	Blocks int `json:"blocks,omitempty"`
	// IDFTPoints is the Doppler generator block length M (realtime mode);
	// zero selects chanspec.DefaultIDFTPoints, the paper's 4096.
	IDFTPoints int `json:"idft_points,omitempty"`
	// NormalizedDoppler is fm = Fm/Fs in (0, 0.5) (realtime mode); zero
	// selects chanspec.DefaultNormalizedDoppler, the paper's 0.05.
	NormalizedDoppler float64 `json:"normalized_doppler,omitempty"`
	// InputVariance is σ²_orig of the Doppler filter input (realtime mode);
	// zero selects the paper's 1/2.
	InputVariance float64 `json:"input_variance,omitempty"`
	// Workers is the parallelism of the batched paths: the SnapshotsInto
	// worker count in batched mode, and in realtime mode the number of
	// Cursors, one per goroutine, that read the blocks. Values <= 1 generate
	// on one goroutine. The output is bit-identical for every value.
	Workers int `json:"workers,omitempty"`
	// Method selects the generation method realizing the covariance target:
	// "generalized" (the default) or one of the conventional methods
	// ("salz_winters", "ertel_reed", "beaulieu_merani", "natarajan",
	// "sorooshyari_daut" — see docs/methods.md). A conventional method that
	// rejects the scenario's target surfaces its typed error as a run error,
	// so expected failures belong in comparison assertions, not here. Every
	// method runs through the same engine, so Workers and parallel_identity
	// apply to all of them. In realtime mode "sorooshyari_daut" also carries
	// the unit-variance whitening of [6], the defect the paper's Section 5
	// corrects; pair it with covariance_defect to measure the bias.
	Method string `json:"method,omitempty"`
}

// AssertionSpec is one gate. Type selects the assertion; the other fields
// are tolerances and knobs read per type as documented on the Assert*
// constants and in docs/scenarios.md. Zero-valued tolerances mean "not
// checked" except where a type requires one (validated by Spec.Validate).
type AssertionSpec struct {
	Type string `json:"type"`
	// Against selects the covariance comparison target: "target" (default,
	// the requested matrix) or "forced" (the PSD approximation actually
	// colored — the right target when the request was indefinite).
	Against string `json:"against,omitempty"`
	// MaxAbsError bounds the entrywise |estimate − target| of covariance
	// assertions.
	MaxAbsError float64 `json:"max_abs_error,omitempty"`
	// MaxRelFrobenius bounds ‖estimate − target‖_F / ‖target‖_F.
	MaxRelFrobenius float64 `json:"max_rel_frobenius,omitempty"`
	// MinAbsError is the covariance_defect floor: the entrywise error must
	// be at least this large.
	MinAbsError float64 `json:"min_abs_error,omitempty"`
	// Envelope is the envelope index observed by moment, KS, chi-square and
	// autocorrelation assertions.
	Envelope int `json:"envelope,omitempty"`
	// MeanTolerance and VarianceTolerance are relative tolerances of the
	// envelope-moment checks against Eq. (14)–(15).
	MeanTolerance     float64 `json:"mean_tolerance,omitempty"`
	VarianceTolerance float64 `json:"variance_tolerance,omitempty"`
	// MinPValue is the significance floor of the KS and chi-square gates.
	MinPValue float64 `json:"min_p_value,omitempty"`
	// Bins is the chi-square bin count; zero selects 20.
	Bins int `json:"bins,omitempty"`
	// MaxLag is the last autocorrelation lag compared; zero selects 100.
	MaxLag int `json:"max_lag,omitempty"`
	// Tolerance bounds the worst |measured − J0| autocorrelation deviation.
	Tolerance float64 `json:"tolerance,omitempty"`
	// MinClamped is the minimum clamped-eigenvalue count of psd_forcing.
	MinClamped int `json:"min_clamped,omitempty"`
	// MaxClamped bounds the clamped count from above; -1 (default via
	// omission is "unchecked") — use 0 with CheckClamped to demand a PSD
	// input passed through untouched.
	MaxClamped *int `json:"max_clamped,omitempty"`
	// MaxFrobeniusError bounds the forcing approximation error ‖K − K̄‖_F.
	MaxFrobeniusError float64 `json:"max_frobenius_error,omitempty"`
	// ExpectCholeskyFailure demands that the conventional Cholesky-based
	// baseline rejects the scenario's covariance (E6).
	ExpectCholeskyFailure bool `json:"expect_cholesky_failure,omitempty"`
	// BeatsEpsilonClamp demands the zero-clamp Frobenius error be no worse
	// than the ε-clamp baseline of Sorooshyari–Daut (E6).
	BeatsEpsilonClamp bool `json:"beats_epsilon_clamp,omitempty"`
	// Workers is the parallel worker count compared against the sequential
	// path by parallel_identity; zero selects 4.
	Workers int `json:"workers,omitempty"`
	// Units caps the units of work (snapshots or blocks) regenerated by the
	// identity assertions; zero selects min(256, Generation size).
	Units int `json:"units,omitempty"`
	// Methods is the comparison assertion's expectation list: one row per
	// generation method run side by side on the scenario's covariance target.
	Methods []MethodExpect `json:"methods,omitempty"`
}

// Validate checks the spec for structural consistency: required fields,
// known model/mode/assertion types, and mode-compatibility of every
// assertion. It does not touch the random streams.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec has no name: %w", ErrBadSpec)
	}
	if err := s.Model.Validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.Generation.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if len(s.Assertions) == 0 {
		return fmt.Errorf("scenario %q: no assertions: %w", s.Name, ErrBadSpec)
	}
	fading := chanspec.NormalizeFading(s.Model.Fading)
	if fading == chanspec.FadingNonstationaryDoppler {
		if s.Generation.Mode != ModeRealtime {
			return fmt.Errorf("scenario %q: fading %q needs realtime mode (snapshots have no time axis), got %q: %w",
				s.Name, fading, s.Generation.Mode, ErrBadSpec)
		}
		if s.Generation.NormalizedDoppler != 0 {
			return fmt.Errorf("scenario %q: fading %q carries per-segment Doppler; generation.normalized_doppler must be omitted: %w",
				s.Name, fading, ErrBadSpec)
		}
	}
	for i := range s.Assertions {
		if err := s.Assertions[i].validate(&s.Generation, fading); err != nil {
			return fmt.Errorf("scenario %q assertion %d: %w", s.Name, i, err)
		}
	}
	return nil
}

func (g *GenerationSpec) validate() error {
	switch g.Mode {
	case ModeSnapshot, ModeBatched:
		if g.Draws <= 0 {
			return fmt.Errorf("%s mode needs draws > 0: %w", g.Mode, ErrBadSpec)
		}
		if g.Blocks != 0 || g.IDFTPoints != 0 || g.NormalizedDoppler != 0 || g.InputVariance != 0 {
			return fmt.Errorf("%s mode does not accept realtime parameters: %w", g.Mode, ErrBadSpec)
		}
		if g.Mode == ModeSnapshot && g.Workers > 1 {
			return fmt.Errorf("snapshot mode is sequential; use batched mode for workers: %w", ErrBadSpec)
		}
	case ModeRealtime:
		if g.Blocks <= 0 {
			return fmt.Errorf("realtime mode needs blocks > 0: %w", ErrBadSpec)
		}
		if g.Draws != 0 {
			return fmt.Errorf("realtime mode does not accept draws: %w", ErrBadSpec)
		}
	case "":
		return fmt.Errorf("generation has no mode: %w", ErrBadSpec)
	default:
		return fmt.Errorf("unknown generation mode %q: %w", g.Mode, ErrBadSpec)
	}
	if err := chanspec.ValidateMethod(g.Method); err != nil {
		return err
	}
	return nil
}

// requireFading rejects an assertion whose statistics are only valid under
// one fading model (the Rayleigh-marginal gates under composite models would
// measure the wrong distribution, and vice versa).
func requireFading(assertType, got string, want ...string) error {
	for _, w := range want {
		if got == w {
			return nil
		}
	}
	return fmt.Errorf("%s assertion needs fading %v, got %q: %w", assertType, want, got, ErrBadSpec)
}

func (a *AssertionSpec) validate(g *GenerationSpec, fading string) error {
	mode := g.Mode
	switch a.Type {
	case AssertCovariance:
		if err := requireFading(a.Type, fading, chanspec.FadingRayleigh, chanspec.FadingNonstationaryDoppler); err != nil {
			// Composite models reshape E[zz*]: the Rician LOS adds a
			// deterministic outer product, Suzuki shadowing inflates the power.
			return err
		}
		if a.MaxAbsError <= 0 && a.MaxRelFrobenius <= 0 {
			return fmt.Errorf("covariance assertion needs max_abs_error or max_rel_frobenius: %w", ErrBadSpec)
		}
		if a.Against != "" && a.Against != "target" && a.Against != "forced" {
			return fmt.Errorf("covariance against must be \"target\" or \"forced\", got %q: %w", a.Against, ErrBadSpec)
		}
	case AssertCovarianceDefect:
		if err := requireFading(a.Type, fading, chanspec.FadingRayleigh, chanspec.FadingNonstationaryDoppler); err != nil {
			return err
		}
		if a.MinAbsError <= 0 {
			return fmt.Errorf("covariance_defect assertion needs min_abs_error > 0: %w", ErrBadSpec)
		}
	case AssertEnvelopeMoments:
		if err := requireFading(a.Type, fading, chanspec.FadingRayleigh, chanspec.FadingNonstationaryDoppler); err != nil {
			return err
		}
		if a.MeanTolerance <= 0 && a.VarianceTolerance <= 0 {
			return fmt.Errorf("envelope_moments assertion needs mean_tolerance or variance_tolerance: %w", ErrBadSpec)
		}
	case AssertRayleighKS, AssertRayleighChiSquare:
		if err := requireFading(a.Type, fading, chanspec.FadingRayleigh); err != nil {
			return err
		}
		if mode == ModeRealtime {
			// The i.i.d. p-value computation is invalid on time-correlated
			// realtime samples; their marginals are checked via moments.
			return fmt.Errorf("%s assertion needs snapshot or batched mode, got %q: %w", a.Type, mode, ErrBadSpec)
		}
		if a.MinPValue <= 0 {
			return fmt.Errorf("%s assertion needs min_p_value > 0: %w", a.Type, ErrBadSpec)
		}
	case AssertAutocorrelation:
		if err := requireFading(a.Type, fading, chanspec.FadingRayleigh); err != nil {
			// Composite models distort the Gaussian ACF (Rician adds a constant
			// mean, Suzuki a slow modulation); the trajectory model has no
			// single fm — use segment_autocorrelation there.
			return err
		}
		if mode != ModeRealtime {
			return fmt.Errorf("autocorrelation assertion needs realtime mode, got %q: %w", mode, ErrBadSpec)
		}
		if a.Tolerance <= 0 {
			return fmt.Errorf("autocorrelation assertion needs tolerance > 0: %w", ErrBadSpec)
		}
	case AssertRicianK:
		if err := requireFading(a.Type, fading, chanspec.FadingRician); err != nil {
			return err
		}
		if a.Tolerance <= 0 {
			return fmt.Errorf("rician_k assertion needs tolerance > 0: %w", ErrBadSpec)
		}
	case AssertNakagamiKS:
		if err := requireFading(a.Type, fading, chanspec.FadingNakagamiM); err != nil {
			return err
		}
		if mode == ModeRealtime {
			// Same restriction as rayleigh_ks: the p-value needs i.i.d. samples.
			return fmt.Errorf("nakagami_ks assertion needs snapshot or batched mode, got %q: %w", mode, ErrBadSpec)
		}
		if a.MinPValue <= 0 {
			return fmt.Errorf("nakagami_ks assertion needs min_p_value > 0: %w", ErrBadSpec)
		}
	case AssertSuzukiLogMoment:
		if err := requireFading(a.Type, fading, chanspec.FadingSuzuki); err != nil {
			return err
		}
		if a.MeanTolerance <= 0 && a.VarianceTolerance <= 0 {
			return fmt.Errorf("suzuki_logmoment assertion needs mean_tolerance or variance_tolerance: %w", ErrBadSpec)
		}
	case AssertSegmentAutocorrelation:
		if err := requireFading(a.Type, fading, chanspec.FadingNonstationaryDoppler); err != nil {
			return err
		}
		if a.Tolerance <= 0 {
			return fmt.Errorf("segment_autocorrelation assertion needs tolerance > 0: %w", ErrBadSpec)
		}
	case AssertPSDForcing:
		if a.MinClamped == 0 && a.MaxClamped == nil && a.MaxFrobeniusError == 0 &&
			!a.ExpectCholeskyFailure && !a.BeatsEpsilonClamp {
			return fmt.Errorf("psd_forcing assertion checks nothing: %w", ErrBadSpec)
		}
	case AssertIntoIdentity:
		// Valid in every mode and for every fading model: both twins are
		// built from the spec's full model configuration.
	case AssertParallelIdentity:
		if mode == ModeSnapshot {
			return fmt.Errorf("parallel_identity assertion needs batched or realtime mode: %w", ErrBadSpec)
		}
	case AssertComparison:
		if err := requireFading(a.Type, fading, chanspec.FadingRayleigh); err != nil {
			// The side-by-side table measures each method against the paper's
			// Rayleigh contract (Eq. (14)–(15) moments, covariance match).
			return err
		}
		if mode == ModeRealtime {
			return fmt.Errorf("comparison assertion needs snapshot or batched mode, got %q: %w", mode, ErrBadSpec)
		}
		if len(a.Methods) < 2 {
			return fmt.Errorf("comparison assertion needs at least 2 method rows, got %d: %w", len(a.Methods), ErrBadSpec)
		}
		seen := map[string]bool{}
		for i := range a.Methods {
			if err := a.Methods[i].validate(); err != nil {
				return fmt.Errorf("method row %d: %w", i, err)
			}
			name := chanspec.NormalizeMethod(a.Methods[i].Method)
			if seen[name] {
				return fmt.Errorf("method row %d: duplicate method %q: %w", i, name, ErrBadSpec)
			}
			seen[name] = true
		}
	case "":
		return fmt.Errorf("assertion has no type: %w", ErrBadSpec)
	default:
		return fmt.Errorf("unknown assertion type %q: %w", a.Type, ErrBadSpec)
	}
	return nil
}

// validate checks one comparison method row.
func (m *MethodExpect) validate() error {
	if m.Method == "" {
		return fmt.Errorf("comparison method row has no method: %w", ErrBadSpec)
	}
	if err := chanspec.ValidateMethod(m.Method); err != nil {
		return err
	}
	switch m.Outcome {
	case "", OutcomeOK:
		if m.MaxAbsError <= 0 && m.MinAbsError <= 0 && m.MeanTolerance <= 0 && m.VarianceTolerance <= 0 {
			return fmt.Errorf("ok row for %q checks nothing (set max_abs_error, min_abs_error or a moment tolerance): %w", m.Method, ErrBadSpec)
		}
	case OutcomeUnsupported, OutcomeSetupFailed:
		if m.MaxAbsError != 0 || m.MinAbsError != 0 || m.MeanTolerance != 0 || m.VarianceTolerance != 0 {
			return fmt.Errorf("%s row for %q cannot carry statistical bounds: %w", m.Outcome, m.Method, ErrBadSpec)
		}
	default:
		return fmt.Errorf("unknown expected outcome %q for %q: %w", m.Outcome, m.Method, ErrBadSpec)
	}
	return nil
}
