package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	rayleigh "repro"
	"repro/internal/chanspec"
	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/scenario"
	"repro/internal/service"
)

// ValidEntry is one generated scenario spec: the parsed spec, its canonical
// file encoding, and — for realtime specs, which are the ones a fadingd can
// serve — the equivalent session spec the replay engine streams.
type ValidEntry struct {
	// Name is the scenario name (unique within the corpus).
	Name string
	// Spec is the generated scenario.
	Spec *scenario.Spec
	// Data is the canonical JSON file encoding of Spec.
	Data []byte
	// Session is the fadingd session spec equivalent to Spec, non-nil only
	// for realtime-mode entries (the service is a realtime streamer; snapshot
	// and batched corpora gate the in-process engine only).
	Session *service.SessionSpec
}

// Corpus is one expanded plan: the valid scenario specs, the targeted
// invalid session specs, the churn session templates, and the manifest that
// content-addresses all of it.
type Corpus struct {
	// Plan is the plan the corpus expanded from (as written, defaults
	// unresolved).
	Plan *Plan
	// Valid are the generated scenario specs, in generation order.
	Valid []*ValidEntry
	// Invalid are the targeted invalid session specs, in generation order.
	Invalid []*InvalidEntry
	// Sessions are the seed-zero session templates drawn from the replayable
	// entries — the spec pool slolab's spec_churn fault cycles through.
	Sessions []service.SessionSpec
	// Manifest content-addresses every file of the corpus.
	Manifest *Manifest
}

// maxSessionTemplates caps the churn template pool (enough spec diversity
// for cold-churn sweeps without making sessions.json another corpus).
const maxSessionTemplates = 8

// Generate expands a plan into a corpus. The expansion is a pure function of
// the plan: every choice comes from one RNG seeded with plan.Seed, and
// combinations the constraint matrix rejects (a method that refuses the
// drawn covariance, a fading model outside the drawn mode) are discarded by
// rejection sampling, so the output depends only on (plan, seed) — never on
// map order, time, or the environment.
func Generate(plan *Plan) (*Corpus, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	p := plan.normalized()
	rng := randx.New(p.Seed)
	c := &Corpus{Plan: plan}

	// Rejection sampling with a hard attempt cap: a plan whose axes admit no
	// valid combination must fail loudly, not spin.
	maxAttempts := 200*p.Valid + 1000
	for attempts := 0; len(c.Valid) < p.Valid; attempts++ {
		if attempts >= maxAttempts {
			return nil, fmt.Errorf("corpus: plan %q: %d attempts yielded %d of %d valid specs (axes too constrained): %w",
				p.Name, attempts, len(c.Valid), p.Valid, ErrBadPlan)
		}
		e := drawValid(p, rng, len(c.Valid))
		if e == nil {
			continue
		}
		c.Valid = append(c.Valid, e)
	}
	for i := 0; i < p.Invalid; i++ {
		c.Invalid = append(c.Invalid, drawInvalid(p, i))
	}
	for _, e := range c.Valid {
		if e.Session == nil || len(c.Sessions) >= maxSessionTemplates {
			continue
		}
		tmpl := *e.Session
		// slolab session templates carry seed 0; the lab derives per-client
		// and per-iteration seeds from the SLO scenario seed.
		tmpl.Seed = 0
		c.Sessions = append(c.Sessions, tmpl)
	}
	c.Manifest = buildManifest(p, c)
	return c, nil
}

// drawValid draws one axis combination and turns it into a scenario spec,
// returning nil when the constraint matrix rejects the combination.
func drawValid(p *Plan, rng *randx.RNG, idx int) *ValidEntry {
	mode := pick(rng, p.Axes.Modes)
	modelType := pick(rng, p.Axes.Models)
	method := pick(rng, p.Axes.Methods)
	fading := pick(rng, p.Axes.Fadings)
	n := p.Axes.N[rng.Intn(len(p.Axes.N))]
	seed := int64(rng.Intn(1<<30)) + 1

	model := drawModel(rng, modelType, n)
	model.Fading, model.Params = drawFading(rng, fading, p.Generation)
	gen := drawGeneration(rng, mode, method, fading, p.Generation)

	// The trajectory fading model needs a time axis: realtime mode only.
	if chanspec.NormalizeFading(fading) == chanspec.FadingNonstationaryDoppler && mode != scenario.ModeRealtime {
		return nil
	}
	if model.Validate() != nil {
		return nil
	}
	target, err := model.Build()
	if err != nil {
		return nil
	}
	forced, err := core.ForcePSD(target)
	if err != nil {
		return nil
	}
	// Probe method acceptance on the drawn covariance through the public
	// constructor: each method's documented rejections (unequal powers,
	// N ≠ 2, complex correlation, non-PSD targets under Cholesky) discard the
	// combination instead of producing a spec that cannot run. Every mode
	// colors with the method's coloring matrix, so one probe serves all of
	// them.
	if _, err := rayleigh.New(rayleigh.Config{Covariance: target.ToRows(), Method: method}); err != nil {
		return nil
	}

	spec := &scenario.Spec{
		Name: fmt.Sprintf("%s-%03d-%s-%s", p.Name, idx, mode, modelType),
		Description: fmt.Sprintf("generated: %s %s target via %s under %s fading",
			mode, modelType, chanspec.NormalizeMethod(method), chanspec.NormalizeFading(fading)),
		Tags:       []string{"corpus", mode, modelType, chanspec.NormalizeMethod(method), chanspec.NormalizeFading(fading)},
		Seed:       seed,
		Model:      *model,
		Generation: gen,
		Assertions: drawAssertions(rng, mode, method, fading, forced, p.Generation),
	}
	if spec.Validate() != nil {
		return nil
	}
	e := &ValidEntry{Name: spec.Name, Spec: spec, Data: encodeJSON(spec)}
	if mode == scenario.ModeRealtime {
		e.Session = sessionFromSpec(spec)
	}
	return e
}

// drawModel draws the correlation-model parameters for one model type. All
// continuous parameters are drawn from small quantized grids: the grid keeps
// the corpus human-readable and the draw count per model type fixed, so the
// RNG sequence (and therefore the corpus) is stable under reruns.
func drawModel(rng *randx.RNG, modelType string, n int) *chanspec.Model {
	switch modelType {
	case chanspec.ModelEq22:
		// Fixed N = 3 complex covariance from the paper; consume no draws.
		return &chanspec.Model{Type: modelType}
	case chanspec.ModelIdentity:
		return &chanspec.Model{Type: modelType, N: n}
	case chanspec.ModelExplicit:
		// Real Toeplitz ρ^|k−j|: N = 2 keeps the two-branch (Ertel–Reed)
		// method in play; N = 3 exercises bigger explicit matrices.
		en := 2 + rng.Intn(2)
		rho := qf(rng, 0.2, 0.8, 6)
		cov := make([][]chanspec.Complex, en)
		for i := range cov {
			cov[i] = make([]chanspec.Complex, en)
			for j := range cov[i] {
				cov[i][j] = chanspec.Complex(complex(powAbs(rho, i-j), 0))
			}
		}
		return &chanspec.Model{Type: modelType, Covariance: cov}
	case chanspec.ModelExponential:
		return &chanspec.Model{
			Type:     modelType,
			N:        n,
			Rho:      qf(rng, 0.2, 0.8, 6),
			PhaseRad: pickf(rng, []float64{0, 0.25, 0.5}),
		}
	case chanspec.ModelConstant:
		m := &chanspec.Model{Type: modelType, N: n}
		if n >= 3 && rng.Intn(4) == 0 {
			// Indefinite on purpose (ρ < −1/(N−1)): the generalized engine's
			// zero clamp and the ε-substitution accept it; Cholesky-based
			// methods reject it at the probe, so these specs land on the
			// methods that document forcing.
			m.Rho = -math.Round((1.0/float64(n-1)+qf(rng, 0.1, 0.3, 4))*1e6) / 1e6
		} else {
			m.Rho = qf(rng, 0.1, 0.6, 5)
		}
		return m
	case chanspec.ModelSpectral:
		return &chanspec.Model{
			Type:             modelType,
			N:                n,
			CarrierSpacingHz: 2e5,
			MaxDopplerHz:     pickf(rng, []float64{20, 50, 80}),
			RMSDelaySpreadS:  1e-6,
			DelayStepS:       pickf(rng, []float64{2e-4, 5e-4, 1e-3}),
		}
	case chanspec.ModelSpatial:
		return &chanspec.Model{
			Type:               modelType,
			N:                  n,
			SpacingWavelengths: pickf(rng, []float64{0.5, 1.0}),
			AngularSpreadRad:   qf(rng, 0.1, 0.5, 4),
			MeanAngleRad:       qf(rng, 0, 1.2, 4),
		}
	}
	return &chanspec.Model{Type: modelType}
}

// drawFading draws one fading model's parameters. The segment trajectory is
// sized in whole blocks of the plan's realtime length so the last segment
// change still lands inside the generated stream.
func drawFading(rng *randx.RNG, fading string, g GenSizes) (string, *chanspec.FadingParams) {
	switch chanspec.NormalizeFading(fading) {
	case chanspec.FadingRician:
		return fading, &chanspec.FadingParams{
			KFactor:     qf(rng, 0.5, 6, 8),
			LOSPhaseRad: pickf(rng, []float64{0, 0.7}),
		}
	case chanspec.FadingNakagamiM:
		return fading, &chanspec.FadingParams{M: qf(rng, 0.6, 3, 8)}
	case chanspec.FadingSuzuki:
		return fading, &chanspec.FadingParams{
			ShadowSigmaDB:   qf(rng, 2, 8, 6),
			ShadowCoherence: []int{0, 128}[rng.Intn(2)],
		}
	case chanspec.FadingNonstationaryDoppler:
		first := 1 + rng.Intn(maxInt(1, g.Blocks-1))
		return fading, &chanspec.FadingParams{Segments: []chanspec.DopplerSegment{
			{Blocks: first, NormalizedDoppler: pickf(rng, []float64{0.02, 0.04})},
			{Blocks: 1, NormalizedDoppler: pickf(rng, []float64{0.06, 0.08})},
		}}
	}
	// Rayleigh default: canonical empty pair.
	return "", nil
}

// drawGeneration draws the mode-specific generation block.
func drawGeneration(rng *randx.RNG, mode, method, fading string, g GenSizes) scenario.GenerationSpec {
	gen := scenario.GenerationSpec{Mode: mode, Method: method}
	switch mode {
	case scenario.ModeSnapshot:
		gen.Draws = g.Draws
	case scenario.ModeBatched:
		gen.Draws = g.Draws
		if chanspec.NormalizeMethod(method) == chanspec.MethodGeneralized {
			// Every method's batched path fans out, but drawing Workers for
			// the conventional methods too would consume RNG draws and so
			// change every committed corpus expansion.
			gen.Workers = pickInt(rng, []int{2, g.MaxWorkers})
		}
	case scenario.ModeRealtime:
		gen.Blocks = g.Blocks
		gen.IDFTPoints = g.IDFTPoints
		if chanspec.NormalizeFading(fading) != chanspec.FadingNonstationaryDoppler {
			gen.NormalizedDoppler = pickf(rng, []float64{0.03, 0.05, 0.1})
		}
		gen.Workers = pickInt(rng, []int{0, 2})
	}
	return gen
}

// drawAssertions assembles the deterministic gate list the constraint matrix
// admits for the drawn combination. Corpus scenarios carry only exact gates
// — forcing diagnostics pinned to the generation-time values and the
// bit-identity assertions — never statistical ones, so a corpus run can
// never flake.
func drawAssertions(rng *randx.RNG, mode, method, fading string, forced *core.ForcedPSD, g GenSizes) []scenario.AssertionSpec {
	clamped := forced.NumClamped
	psd := scenario.AssertionSpec{
		Type:       scenario.AssertPSDForcing,
		MinClamped: clamped,
		MaxClamped: &clamped,
	}
	if forced.FrobeniusError > 0 {
		// The engine recomputes the same deterministic forcing, so the
		// generation-time error is an exact upper bound.
		psd.MaxFrobeniusError = forced.FrobeniusError
	}
	out := []scenario.AssertionSpec{psd}

	// into_identity holds for every fading model in every mode, but snapshot
	// modes draw it for Rayleigh only: drawing it for the other models would
	// change the committed corpus-smoke specs and every corpus-full expansion.
	rayleighLike := chanspec.NormalizeFading(fading) == chanspec.FadingRayleigh
	if mode == scenario.ModeRealtime || rayleighLike {
		out = append(out, scenario.AssertionSpec{Type: scenario.AssertIntoIdentity})
	}
	generalized := chanspec.NormalizeMethod(method) == chanspec.MethodGeneralized
	if mode == scenario.ModeRealtime || (mode == scenario.ModeBatched && generalized) {
		out = append(out, scenario.AssertionSpec{
			Type:    scenario.AssertParallelIdentity,
			Workers: pickInt(rng, []int{2, g.MaxWorkers}),
		})
	}
	return out
}

// sessionFromSpec maps a realtime scenario spec onto the equivalent fadingd
// session spec: same model vocabulary, same sizes, same seed — the service
// serves exactly the channel the scenario generated.
func sessionFromSpec(spec *scenario.Spec) *service.SessionSpec {
	return &service.SessionSpec{
		Model:             spec.Model,
		Method:            spec.Generation.Method,
		Seed:              spec.Seed,
		Blocks:            spec.Generation.Blocks,
		IDFTPoints:        spec.Generation.IDFTPoints,
		NormalizedDoppler: spec.Generation.NormalizedDoppler,
		InputVariance:     spec.Generation.InputVariance,
	}
}

// pick draws one element of a non-empty string list.
func pick(rng *randx.RNG, xs []string) string { return xs[rng.Intn(len(xs))] }

// pickf draws one element of a non-empty float list.
func pickf(rng *randx.RNG, xs []float64) float64 { return xs[rng.Intn(len(xs))] }

// pickInt draws one element of a non-empty int list.
func pickInt(rng *randx.RNG, xs []int) int { return xs[rng.Intn(len(xs))] }

// qf draws one of steps+1 evenly spaced values in [lo, hi] — a quantized
// grid instead of a raw Float64, so every model parameter draw consumes
// exactly one RNG output and encodes to a short, stable JSON literal. Values
// are rounded to a micro grid to keep binary floating-point noise out of the
// committed files.
func qf(rng *randx.RNG, lo, hi float64, steps int) float64 {
	v := lo + (hi-lo)*float64(rng.Intn(steps+1))/float64(steps)
	return math.Round(v*1e6) / 1e6
}

// powAbs returns rho^|d|.
func powAbs(rho float64, d int) float64 {
	if d < 0 {
		d = -d
	}
	out := 1.0
	for i := 0; i < d; i++ {
		out *= rho
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// encodeJSON renders one corpus artifact: two-space indented JSON with HTML
// escaping off and a trailing newline — the committed-file convention of
// scenarios/, so generated and hand-written specs diff cleanly.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	// Corpus artifacts contain only marshal-safe fields.
	_ = enc.Encode(v)
	return buf.Bytes()
}
