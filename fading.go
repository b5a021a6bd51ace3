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
// Blocks consecutive blocks generated with the given normalized maximum
// Doppler shift. The final segment persists for every block past the end of
// the trajectory.
type DopplerSegment struct {
	// Blocks is the segment length in blocks; it must be positive.
	Blocks int
	// NormalizedDoppler is the segment's fm = Fm/Fs, in (0, 0.5).
	NormalizedDoppler float64
}

// FadingParams carries the per-model parameters of the Fading configuration
// fields. Each fading model reads only its own fields; the rest may stay zero.
type FadingParams struct {
	// KFactor is the Rician K-factor (LOS power / scattered power), ≥ 0.
	// Read by FadingRician; K = 0 degenerates to Rayleigh.
	KFactor float64
	// LOSPhaseRad is the phase of the Rician LOS component (default 0).
	LOSPhaseRad float64
	// M is the Nakagami shape parameter, 0.5 ≤ m ≤ 50 (the range the
	// transform's error bound covers; other values are rejected). Read by
	// FadingNakagamiM; m = 1 is exactly Rayleigh.
	M float64
	// ShadowSigmaDB is the Suzuki lognormal shadowing standard deviation in
	// dB, > 0. Read by FadingSuzuki.
	ShadowSigmaDB float64
	// ShadowCoherence is the Suzuki shadowing coherence length in samples;
	// zero selects DefaultShadowCoherence.
	ShadowCoherence int
	// Segments is the nonstationary-Doppler velocity trajectory. Read by
	// FadingNonstationaryDoppler; at least one segment is required.
	Segments []DopplerSegment
}

// FadingModelInfo describes one fading model of the zoo.
type FadingModelInfo struct {
	// Name is the Fading configuration value ("rayleigh", "rician", …).
	Name string
	// Title is the human-readable model name.
	Title string
	// Envelope names the marginal envelope distribution the model produces.
	Envelope string
	// Params documents the FadingParams fields the model reads.
	Params string
	// Constraints summarizes where the model is available and what its
	// parameters must satisfy.
	Constraints string
	// Notes records composition details and caveats (empty when none).
	Notes string
}

// Models returns the catalog of fading models, the Rayleigh default first.
// It is the public mirror of the fadingd /v1/models endpoint.
func Models() []FadingModelInfo {
	infos := chanspec.FadingModels()
	out := make([]FadingModelInfo, len(infos))
	for i, m := range infos {
		out[i] = FadingModelInfo{
			Name:        m.Name,
			Title:       m.Title,
			Envelope:    m.Envelope,
			Params:      m.Params,
			Constraints: m.Constraints,
			Notes:       m.Notes,
		}
	}
	return out
}

// fadingSpecParams converts public fading parameters to the spec form shared
// with scenario files and the fadingd service.
func fadingSpecParams(p *FadingParams) *chanspec.FadingParams {
	if p == nil {
		return nil
	}
	out := &chanspec.FadingParams{
		KFactor:         p.KFactor,
		LOSPhaseRad:     p.LOSPhaseRad,
		M:               p.M,
		ShadowSigmaDB:   p.ShadowSigmaDB,
		ShadowCoherence: p.ShadowCoherence,
	}
	if len(p.Segments) > 0 {
		out.Segments = make([]chanspec.DopplerSegment, len(p.Segments))
		for i, s := range p.Segments {
			out.Segments[i] = chanspec.DopplerSegment{Blocks: s.Blocks, NormalizedDoppler: s.NormalizedDoppler}
		}
	}
	return out
}
