package chanspec

import (
	"fmt"
	"math"
)

// Fading model names. A spec's "model.fading" field selects the envelope
// distribution layered on top of the correlated complex-Gaussian engine: the
// paper's correlated Rayleigh (the default), or one of the composite models
// of the zoo. The same vocabulary is accepted by scenario files, fadingd
// session specs and the public API's Config.Fading; docs/models.md catalogues
// each model's math and statistical gates.
const (
	// FadingRayleigh is the paper's correlated Rayleigh fading: the envelope
	// is the magnitude of the colored complex Gaussian. No parameters.
	FadingRayleigh = "rayleigh"
	// FadingRician adds a fixed line-of-sight component after coloring:
	// z' = sqrt(K·Ω/(K+1))·e^{iθ} + z/sqrt(K+1), preserving the spatial
	// correlation of the scattered part while the envelope becomes Rician
	// with K-factor params.k_factor.
	FadingRician = "rician"
	// FadingNakagamiM maps the Rayleigh envelope through the
	// probability-integral transform onto a Nakagami-m envelope of the same
	// mean power Ω: u = 1 − exp(−r²/Ω), r' = sqrt(Ω·P⁻¹(m, u)/m), with the
	// phase (and hence the instantaneous spatial correlation structure)
	// inherited from the Gaussian. The map is tabulated per m with a stated
	// error bound of 1e-7 and solved exactly outside the table (see
	// docs/models.md).
	FadingNakagamiM = "nakagami_m"
	// FadingSuzuki multiplies the Rayleigh envelope by correlated lognormal
	// shadowing: z' = z·10^{σ_dB·g(t)/20}, where g(t) is a unit-variance
	// Gaussian process interpolated between independent knots
	// params.shadow_coherence samples apart. The shadowing is a pure
	// function of (seed, envelope, sample index), so random access stays
	// O(1) and block streams are byte-identical across resume points.
	FadingSuzuki = "suzuki"
	// FadingNonstationaryDoppler keeps the Rayleigh envelope but replans the
	// Doppler panel per segment of a piecewise velocity trajectory:
	// params.segments lists (blocks, normalized_doppler) pairs; the last
	// segment persists past the end of the trajectory. Real-time modes only.
	FadingNonstationaryDoppler = "nonstationary_doppler"
)

// DefaultShadowCoherence is the Suzuki shadowing knot spacing, in samples,
// when params.shadow_coherence is omitted.
const DefaultShadowCoherence = 256

// maxShadowSigmaDB is the largest Suzuki shadow_sigma_db ValidateFading
// accepts; the derivation is next to the check.
const maxShadowSigmaDB float64 = 100

// DefaultIDFTPoints is the block length M, in samples, of a real-time spec
// that omits it: the paper's 4096.
const DefaultIDFTPoints = 4096

// DefaultNormalizedDoppler is fm = Fm/Fs of a real-time spec that omits it:
// the paper's 0.05 (Fm = 50 Hz at Fs = 1 kHz).
const DefaultNormalizedDoppler = 0.05

// FilterDoppler returns the normalized Doppler a real-time spec's Doppler
// filter runs at: zero under FadingNonstationaryDoppler, whose segments
// carry their own; otherwise fm, or DefaultNormalizedDoppler when fm is zero.
func FilterDoppler(fading string, fm float64) float64 {
	if NormalizeFading(fading) == FadingNonstationaryDoppler {
		return 0
	}
	if fm != 0 {
		return fm
	}
	return DefaultNormalizedDoppler
}

// DopplerSegment is one leg of a nonstationary-Doppler velocity trajectory:
// Blocks consecutive blocks generated with the given normalized maximum
// Doppler shift. The final segment persists for every block past the end of
// the trajectory. It is also the public API's rayleigh.DopplerSegment.
type DopplerSegment struct {
	// Blocks is the segment length in blocks; it must be positive.
	Blocks int `json:"blocks"`
	// NormalizedDoppler is the segment's fm = Fm/Fs, in (0, 0.5).
	NormalizedDoppler float64 `json:"normalized_doppler"`
}

// FadingParams carries the per-model parameters of Model.Params, and of the
// public API's Config.FadingParams and RealTimeConfig.FadingParams (it is
// also rayleigh.FadingParams). Each fading model reads only its own fields,
// named per field below; the rest may stay zero, and Canonical drops them so
// equivalent specs hash identically. New exported fields must be copied by
// canonicalFading for the model that reads them — the canonfields analyzer
// fails the lint run otherwise.
//
// fadinglint:canon=canonicalFading
type FadingParams struct {
	// KFactor is the Rician K-factor (LOS power / scattered power), finite
	// and ≥ 0. Read by FadingRician; K = 0 degenerates to Rayleigh.
	KFactor float64 `json:"k_factor,omitempty"`
	// LOSPhaseRad is the phase of the Rician LOS component, finite (default
	// 0). Read by FadingRician.
	LOSPhaseRad float64 `json:"los_phase_rad,omitempty"`
	// M is the Nakagami shape parameter, 0.5 ≤ m ≤ 50: the range the
	// transform's 1e-7 error bound covers; other values are rejected. Read
	// by FadingNakagamiM; m = 1 is exactly Rayleigh.
	M float64 `json:"m,omitempty"`
	// ShadowSigmaDB is the Suzuki lognormal shadowing standard deviation in
	// dB, in (0, 100]: beyond 100 dB the shadowed samples can overflow.
	// Read by FadingSuzuki.
	ShadowSigmaDB float64 `json:"shadow_sigma_db,omitempty"`
	// ShadowCoherence is the Suzuki shadowing coherence length in samples
	// (knot spacing of the interpolated shadowing process), ≥ 0; zero
	// selects DefaultShadowCoherence. Read by FadingSuzuki.
	ShadowCoherence int `json:"shadow_coherence,omitempty"`
	// Segments is the nonstationary-Doppler velocity trajectory. Read by
	// FadingNonstationaryDoppler, which needs at least one segment.
	Segments []DopplerSegment `json:"segments,omitempty"`
}

// FadingModelInfo describes one fading model for catalogs, reports, the
// fadingd /v1/models endpoint and the public API's Models (it is also
// rayleigh.FadingModelInfo).
type FadingModelInfo struct {
	// Name is the spec value and Fading configuration value ("rayleigh",
	// "rician", …).
	Name string `json:"name"`
	// Title is the human-readable model name.
	Title string `json:"title"`
	// Envelope names the marginal envelope distribution the model produces.
	Envelope string `json:"envelope"`
	// Params documents the FadingParams fields the model reads, by their
	// model.params keys.
	Params string `json:"params,omitempty"`
	// Constraints summarizes where the model is available and what its
	// parameters must satisfy.
	Constraints string `json:"constraints"`
	// Notes records composition details and caveats (empty when none).
	Notes string `json:"notes,omitempty"`
}

// FadingModels returns the fading-model catalog in canonical order (the
// paper's Rayleigh default first).
func FadingModels() []FadingModelInfo {
	return []FadingModelInfo{
		{
			Name:        FadingRayleigh,
			Title:       "Correlated Rayleigh",
			Envelope:    "Rayleigh, E[r²] = Ω from the covariance diagonal",
			Constraints: "all modes and methods; no parameters",
		},
		{
			Name:        FadingRician,
			Title:       "Rician (K-factor line of sight)",
			Envelope:    "Rician with K = params.k_factor, mean power Ω preserved",
			Params:      "k_factor ≥ 0 (required), los_phase_rad (default 0)",
			Constraints: "all modes and methods; the LOS component is added after coloring so the scattered part keeps the target spatial correlation",
			Notes:       "the served covariance diagonal stays Ω; the off-diagonal correlation of the composite signal gains the deterministic LOS outer product",
		},
		{
			Name:        FadingNakagamiM,
			Title:       "Nakagami-m (gamma envelope transform)",
			Envelope:    "Nakagami-m with shape params.m, mean power Ω preserved",
			Params:      "0.5 ≤ m ≤ 50 (required); m = 1 is exactly Rayleigh",
			Constraints: "all modes and methods; the probability-integral transform is applied per sample after coloring",
			Notes:       "the transform is monotone in the envelope, so envelope rank correlation is preserved while the Gaussian covariance is no longer exactly achieved for m ≠ 1",
		},
		{
			Name:        FadingSuzuki,
			Title:       "Suzuki (Rayleigh × lognormal shadowing)",
			Envelope:    "Suzuki: Rayleigh modulated by lognormal shadowing of σ = params.shadow_sigma_db dB",
			Params:      "shadow_sigma_db > 0 (required), shadow_coherence samples (default 256)",
			Constraints: "all modes and methods; shadowing knots are a pure function of (seed, envelope, sample index) so random access stays O(1)",
			Notes:       "log-envelope variance is the Rayleigh 31.0249 dB² plus shadow_sigma_db²; mean envelope power is inflated by the lognormal mean exp((σ·ln10/20)²/2)",
		},
		{
			Name:        FadingNonstationaryDoppler,
			Title:       "Nonstationary Doppler trajectory",
			Envelope:    "Rayleigh per segment; the Doppler spectrum changes at segment boundaries",
			Params:      "segments: [{blocks > 0, normalized_doppler ∈ (0, 0.5)}, …] (required); the last segment persists past the trajectory end",
			Constraints: "real-time block modes only (segments are block-aligned); the top-level normalized Doppler must be omitted",
			Notes:       "block k is still a pure function of (spec, seed, k): its segment is found from k alone, so resumes and worker counts stay byte-identical",
		},
	}
}

// FadingNames returns the spec values of every fading model, in catalog order.
func FadingNames() []string {
	infos := FadingModels()
	names := make([]string, len(infos))
	for i, m := range infos {
		names[i] = m.Name
	}
	return names
}

// NormalizeFading maps the empty fading model to the Rayleigh default.
func NormalizeFading(fading string) string {
	if fading == "" {
		return FadingRayleigh
	}
	return fading
}

// ValidateFading checks the fading-model name and its parameters. The empty
// string is accepted as the Rayleigh default. Parameters other models read
// are tolerated (Canonical drops them); the selected model's own parameters
// must be present and in range.
func ValidateFading(fading string, params *FadingParams) error {
	switch NormalizeFading(fading) {
	case FadingRayleigh:
		return nil
	case FadingRician:
		if params == nil {
			return fmt.Errorf("fading %q needs params.k_factor: %w", FadingRician, ErrBadSpec)
		}
		if !(params.KFactor >= 0) || math.IsInf(params.KFactor, 1) {
			return fmt.Errorf("fading %q needs a finite k_factor >= 0, got %g: %w", FadingRician, params.KFactor, ErrBadSpec)
		}
		if math.IsNaN(params.LOSPhaseRad) || math.IsInf(params.LOSPhaseRad, 0) {
			return fmt.Errorf("fading %q needs a finite los_phase_rad, got %g: %w", FadingRician, params.LOSPhaseRad, ErrBadSpec)
		}
		return nil
	case FadingNakagamiM:
		if params == nil {
			return fmt.Errorf("fading %q needs params.m: %w", FadingNakagamiM, ErrBadSpec)
		}
		if !(params.M >= 0.5) {
			return fmt.Errorf("fading %q needs m >= 0.5, got %g: %w", FadingNakagamiM, params.M, ErrBadSpec)
		}
		// The transform's stated error bound holds up to m = 50 only.
		if params.M > 50 {
			return fmt.Errorf("fading %q needs m <= 50, got %g: %w", FadingNakagamiM, params.M, ErrBadSpec)
		}
		return nil
	case FadingSuzuki:
		if params == nil {
			return fmt.Errorf("fading %q needs params.shadow_sigma_db: %w", FadingSuzuki, ErrBadSpec)
		}
		// The cap keeps every shadowed sample finite. A knot is Box–Muller
		// on 53-bit uniforms, so |knot| ≤ √(−2·ln 2⁻⁵³) = √(106·ln 2) ≈ 8.57,
		// and the variance-preserving interpolation between two knots is at
		// most √2 times that: |g| ≤ 12.1. At 100 dB the shadow factor
		// 10^(σ·g/20) is then at most 10^60.6, so re² in dsp.Envelope stays
		// finite for every target inside the [1e-100, 1e100] covariance
		// scale window the constructors enforce.
		if !(params.ShadowSigmaDB > 0 && params.ShadowSigmaDB <= maxShadowSigmaDB) {
			return fmt.Errorf("fading %q needs 0 < shadow_sigma_db <= %g, got %g: %w",
				FadingSuzuki, maxShadowSigmaDB, params.ShadowSigmaDB, ErrBadSpec)
		}
		if params.ShadowCoherence < 0 {
			return fmt.Errorf("fading %q needs shadow_coherence >= 0, got %d: %w", FadingSuzuki, params.ShadowCoherence, ErrBadSpec)
		}
		return nil
	case FadingNonstationaryDoppler:
		if params == nil || len(params.Segments) == 0 {
			return fmt.Errorf("fading %q needs at least one params.segments entry: %w", FadingNonstationaryDoppler, ErrBadSpec)
		}
		for i, seg := range params.Segments {
			if seg.Blocks <= 0 {
				return fmt.Errorf("fading %q segment %d needs blocks > 0, got %d: %w",
					FadingNonstationaryDoppler, i, seg.Blocks, ErrBadSpec)
			}
			if !(0 < seg.NormalizedDoppler && seg.NormalizedDoppler < 0.5) {
				return fmt.Errorf("fading %q segment %d normalized_doppler %g outside (0, 0.5): %w",
					FadingNonstationaryDoppler, i, seg.NormalizedDoppler, ErrBadSpec)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown fading model %q (want one of %v): %w",
		fading, FadingNames(), ErrBadSpec)
}

// canonicalFading returns the canonical (fading, params) pair for Canonical:
// the Rayleigh default encodes as the empty pair, other models keep only the
// fields they read, with defaults resolved.
func canonicalFading(fading string, params *FadingParams) (string, *FadingParams) {
	f := NormalizeFading(fading)
	if f == FadingRayleigh {
		return "", nil
	}
	if params == nil {
		// Invalid (ValidateFading rejects it); encode the name alone.
		return f, nil
	}
	c := &FadingParams{}
	switch f {
	case FadingRician:
		c.KFactor, c.LOSPhaseRad = params.KFactor, params.LOSPhaseRad
	case FadingNakagamiM:
		c.M = params.M
	case FadingSuzuki:
		c.ShadowSigmaDB = params.ShadowSigmaDB
		c.ShadowCoherence = params.ShadowCoherence
		if c.ShadowCoherence == 0 {
			c.ShadowCoherence = DefaultShadowCoherence
		}
	case FadingNonstationaryDoppler:
		c.Segments = params.Segments
	default:
		cp := *params
		c = &cp
	}
	return f, c
}

// SegmentIndexAt returns the index of the trajectory segment covering the
// given block, treating the last segment as persisting past the end of the
// trajectory. An empty trajectory returns 0.
//
// fadinglint:allocfree
func SegmentIndexAt(segments []DopplerSegment, block uint64) int {
	var start uint64
	for i, seg := range segments {
		start += uint64(seg.Blocks)
		if block < start {
			return i
		}
	}
	if len(segments) == 0 {
		return 0
	}
	return len(segments) - 1
}
