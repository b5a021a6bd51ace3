// Package corpus is the seeded scenario-corpus generator and replay engine
// of this repository: a compact JSON plan (axes × constraints × seed)
// expands deterministically into hundreds of valid scenario specs — plus
// targeted invalid session specs for the service's 400-path and
// ErrUnsupported/ErrSetupFailed coverage — respecting the per-method and
// per-fading constraint matrix of internal/chanspec and internal/scenario.
// The replay engine runs every generated realtime spec through the service's
// in-process stream construction and replays the same specs against a live
// fadingd (reusing the internal/slolab resuming client), asserting SHA-256
// byte-identity between the two paths, across chunkings and across resume
// points. cmd/corpusgen drives generation, verification and replay
// from the command line and CI; docs/corpus.md documents the plan schema,
// the constraint matrix and the replay contract.
//
// Everything is deterministic: the same plan and seed produce byte-identical
// corpora, enforced by cmd/corpusgen's verify subcommand and the package
// tests.
//
// fadinglint:deterministic
package corpus

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/chanspec"
	"repro/internal/scenario"
)

// ErrBadPlan reports an invalid corpus plan (the shared chanspec sentinel,
// so plan errors match the same errors.Is target as spec errors).
var ErrBadPlan = chanspec.ErrBadSpec

// Plan is the compact JSON description a corpus expands from: a seed, target
// counts, the axes to sweep, and shared generation sizes. Axes left empty
// select the full vocabulary; the generator draws combinations from the axes
// and keeps only those the constraint matrix admits, so a plan never has to
// spell out which method accepts which covariance.
type Plan struct {
	// Name prefixes every generated scenario name (kebab-case slug).
	Name string `json:"name"`
	// Seed drives every random choice of the expansion. Same plan + same
	// seed → byte-identical corpus.
	Seed int64 `json:"seed"`
	// Valid is the number of valid scenario specs to generate.
	Valid int `json:"valid"`
	// Invalid is the number of targeted invalid session specs to generate
	// (cycling the invalid-class templates; zero skips them).
	Invalid int `json:"invalid,omitempty"`
	// Axes restricts the swept vocabulary; empty axes select everything.
	Axes Axes `json:"axes,omitempty"`
	// Generation sizes the generated workloads; zero fields select the
	// defaults documented on GenSizes.
	Generation GenSizes `json:"generation,omitempty"`
}

// Axes lists the vocabulary one plan sweeps. Every entry must belong to the
// shared chanspec/scenario vocabulary; an empty list selects the full
// catalog for that axis.
type Axes struct {
	// Models are chanspec model types (eq22, identity, explicit, exponential,
	// constant, spectral, spatial).
	Models []string `json:"models,omitempty"`
	// Methods are generation backends (generalized, salz_winters, ertel_reed,
	// beaulieu_merani, natarajan, sorooshyari_daut).
	Methods []string `json:"methods,omitempty"`
	// Fadings are fading models (rayleigh, rician, nakagami_m, suzuki,
	// nonstationary_doppler).
	Fadings []string `json:"fadings,omitempty"`
	// Modes are generation modes (snapshot, batched, realtime).
	Modes []string `json:"modes,omitempty"`
	// N are the envelope counts drawn for models with a free N.
	N []int `json:"n,omitempty"`
}

// GenSizes are the shared workload sizes of the generated specs. They are
// deliberately small by default: corpus scenarios gate determinism and
// structural contracts (identity, forcing diagnostics), not statistics, so a
// cheap corpus of hundreds of specs still runs in seconds.
type GenSizes struct {
	// Draws is the snapshot/batched draw count (default 64).
	Draws int `json:"draws,omitempty"`
	// Blocks is the realtime block count (default 4).
	Blocks int `json:"blocks,omitempty"`
	// IDFTPoints is the realtime block length (default 256; it must be a
	// power of two).
	IDFTPoints int `json:"idft_points,omitempty"`
	// MaxWorkers is the largest worker count drawn for parallel-identity
	// sweeps (default 4).
	MaxWorkers int `json:"max_workers,omitempty"`
}

// withDefaults resolves the zero fields.
func (g GenSizes) withDefaults() GenSizes {
	if g.Draws == 0 {
		g.Draws = 64
	}
	if g.Blocks == 0 {
		g.Blocks = 4
	}
	if g.IDFTPoints == 0 {
		g.IDFTPoints = 256
	}
	if g.MaxWorkers == 0 {
		g.MaxWorkers = 4
	}
	return g
}

// modelTypes is the full model-type vocabulary, in catalog order.
func modelTypes() []string {
	return []string{
		chanspec.ModelEq22, chanspec.ModelIdentity, chanspec.ModelExplicit,
		chanspec.ModelExponential, chanspec.ModelConstant,
		chanspec.ModelSpectral, chanspec.ModelSpatial,
	}
}

// modes is the full generation-mode vocabulary.
func modes() []string {
	return []string{scenario.ModeSnapshot, scenario.ModeBatched, scenario.ModeRealtime}
}

// normalized returns the plan with defaults resolved: empty axes expand to
// the full vocabulary, zero sizes to their defaults.
func (p *Plan) normalized() *Plan {
	n := *p
	if len(n.Axes.Models) == 0 {
		n.Axes.Models = modelTypes()
	}
	if len(n.Axes.Methods) == 0 {
		n.Axes.Methods = chanspec.MethodNames()
	}
	if len(n.Axes.Fadings) == 0 {
		n.Axes.Fadings = chanspec.FadingNames()
	}
	if len(n.Axes.Modes) == 0 {
		n.Axes.Modes = modes()
	}
	if len(n.Axes.N) == 0 {
		n.Axes.N = []int{2, 3, 4, 8}
	}
	n.Generation = n.Generation.withDefaults()
	return &n
}

// Validate checks the plan for structural consistency: a name, positive
// counts, and every axis entry inside the shared vocabulary.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("corpus: plan has no name: %w", ErrBadPlan)
	}
	if p.Valid <= 0 {
		return fmt.Errorf("corpus: plan %q needs valid > 0: %w", p.Name, ErrBadPlan)
	}
	if p.Invalid < 0 {
		return fmt.Errorf("corpus: plan %q needs invalid >= 0: %w", p.Name, ErrBadPlan)
	}
	for _, m := range p.Axes.Models {
		if !contains(modelTypes(), m) {
			return fmt.Errorf("corpus: plan %q: unknown model type %q (want one of %v): %w",
				p.Name, m, modelTypes(), ErrBadPlan)
		}
	}
	for _, m := range p.Axes.Methods {
		if m == "" {
			return fmt.Errorf("corpus: plan %q: empty method axis entry: %w", p.Name, ErrBadPlan)
		}
		if err := chanspec.ValidateMethod(m); err != nil {
			return fmt.Errorf("corpus: plan %q: %w", p.Name, err)
		}
	}
	for _, f := range p.Axes.Fadings {
		if f == "" {
			return fmt.Errorf("corpus: plan %q: empty fading axis entry: %w", p.Name, ErrBadPlan)
		}
		if !contains(chanspec.FadingNames(), f) {
			return fmt.Errorf("corpus: plan %q: unknown fading %q (want one of %v): %w",
				p.Name, f, chanspec.FadingNames(), ErrBadPlan)
		}
	}
	for _, m := range p.Axes.Modes {
		if !contains(modes(), m) {
			return fmt.Errorf("corpus: plan %q: unknown mode %q (want one of %v): %w",
				p.Name, m, modes(), ErrBadPlan)
		}
	}
	for _, n := range p.Axes.N {
		if n < 2 || n > 64 {
			return fmt.Errorf("corpus: plan %q: axis n %d outside [2, 64]: %w", p.Name, n, ErrBadPlan)
		}
	}
	g := p.Generation
	if g.Draws < 0 || g.Blocks < 0 || g.IDFTPoints < 0 || g.MaxWorkers < 0 {
		return fmt.Errorf("corpus: plan %q: negative generation size: %w", p.Name, ErrBadPlan)
	}
	return nil
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

// ParsePlan decodes one plan from JSON. Decoding is strict
// (chanspec.DecodeStrict): an unknown field fails loudly instead of silently
// shrinking the corpus, and so does data after the plan.
func ParsePlan(data []byte) (*Plan, error) {
	var p Plan
	if err := chanspec.DecodeStrict(bytes.NewReader(data), &p); err != nil {
		return nil, fmt.Errorf("corpus: %w: %w", ErrBadPlan, err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadPlan reads and parses one plan file.
func LoadPlan(path string) (*Plan, error) {
	return chanspec.LoadFile(path, ParsePlan)
}

// canonicalJSON is the stable plan encoding hashed into the manifest.
func (p *Plan) canonicalJSON() []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	// A validated plan cannot fail to encode.
	_ = enc.Encode(p)
	return bytes.TrimSpace(buf.Bytes())
}
