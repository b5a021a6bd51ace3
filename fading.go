package rayleigh

import "repro/internal/chanspec"

// Fading model names accepted by Config.Fading and RealTimeConfig.Fading:
// the paper's correlated Rayleigh (the default, empty
// string included) and the composite models of the channel-model zoo. Every
// model rides the same correlated complex-Gaussian engine and inherits its
// determinism contract: a seeded run is bit-identical for every worker count,
// and block k of a real-time stream is a pure function of the configuration
// and k. Each model's math, parameters and statistical gates are catalogued in
// docs/models.md and by Models.
const (
	// FadingRayleigh is the paper's correlated Rayleigh fading (the default):
	// the envelope is the magnitude of the colored complex Gaussian.
	FadingRayleigh = chanspec.FadingRayleigh
	// FadingRician adds a fixed line-of-sight component after coloring, giving
	// a Rician envelope with K-factor FadingParams.KFactor while the scattered
	// part keeps the target spatial correlation.
	FadingRician = chanspec.FadingRician
	// FadingNakagamiM maps each Rayleigh envelope onto a Nakagami-m envelope
	// of the same mean power through the probability-integral transform,
	// preserving the sample phase. The transform reads a per-m table, so the
	// envelope's CDF is within 1e-7 of Nakagami-m for 0.5 ≤ m ≤ 50.
	FadingNakagamiM = chanspec.FadingNakagamiM
	// FadingSuzuki multiplies the Rayleigh envelope by correlated lognormal
	// shadowing with coherence length FadingParams.ShadowCoherence samples.
	FadingSuzuki = chanspec.FadingSuzuki
	// FadingNonstationaryDoppler keeps the Rayleigh envelope but replans the
	// Doppler spectrum per segment of a piecewise velocity trajectory
	// (FadingParams.Segments). Real-time block modes only: snapshots have no
	// time axis, so New rejects it.
	FadingNonstationaryDoppler = chanspec.FadingNonstationaryDoppler
)

// DefaultShadowCoherence is the Suzuki shadowing knot spacing, in samples,
// when FadingParams.ShadowCoherence is zero.
const DefaultShadowCoherence = chanspec.DefaultShadowCoherence

// DopplerSegment is one leg of a nonstationary-Doppler velocity trajectory:
// Blocks consecutive blocks (a positive count) generated with the normalized
// maximum Doppler shift NormalizedDoppler, in (0, 0.5). The final segment
// persists for every block past the end of the trajectory. It is the spec
// type chanspec.DopplerSegment, whose fields and JSON keys ("blocks",
// "normalized_doppler") fadingd specs share.
type DopplerSegment = chanspec.DopplerSegment

// FadingParams carries the per-model parameters of the Fading configuration
// fields. Each fading model reads only its own fields; the rest may stay
// zero. The fields are KFactor (finite, ≥ 0) and LOSPhaseRad (finite) for
// FadingRician; M (0.5 ≤ m ≤ 50) for FadingNakagamiM; ShadowSigmaDB (finite,
// > 0) and ShadowCoherence (samples, zero selects DefaultShadowCoherence)
// for FadingSuzuki; and Segments (at least one) for
// FadingNonstationaryDoppler. It is the spec type chanspec.FadingParams, the
// "params" object of fadingd specs, whose field comments give the details.
type FadingParams = chanspec.FadingParams

// FadingModelInfo describes one fading model of the zoo: its Name (the
// Fading configuration value), Title, Envelope distribution, the Params it
// reads, its Constraints and its Notes (empty when none). It is the spec
// type chanspec.FadingModelInfo that fadingd's /v1/models endpoint serves.
type FadingModelInfo = chanspec.FadingModelInfo

// Models returns the catalog of fading models, the Rayleigh default first:
// the catalog fadingd's /v1/models endpoint serves. Each call builds a fresh
// slice, so the caller may modify it.
func Models() []FadingModelInfo { return chanspec.FadingModels() }
