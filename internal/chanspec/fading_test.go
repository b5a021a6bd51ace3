package chanspec

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestValidateFading(t *testing.T) {
	bad := []struct {
		fading string
		params *FadingParams
	}{
		{"warp", nil},
		{FadingRician, nil},
		{FadingRician, &FadingParams{KFactor: -1}},
		{FadingRician, &FadingParams{KFactor: math.Inf(1)}},
		{FadingRician, &FadingParams{KFactor: 2, LOSPhaseRad: math.NaN()}},
		{FadingNakagamiM, nil},
		{FadingNakagamiM, &FadingParams{M: 0.25}},
		{FadingNakagamiM, &FadingParams{M: 50.5}},
		{FadingNakagamiM, &FadingParams{M: 1e6}},
		{FadingSuzuki, nil},
		{FadingSuzuki, &FadingParams{ShadowSigmaDB: 0}},
		{FadingSuzuki, &FadingParams{ShadowSigmaDB: math.Inf(1)}},
		{FadingSuzuki, &FadingParams{ShadowSigmaDB: 4, ShadowCoherence: -1}},
		{FadingNonstationaryDoppler, nil},
		{FadingNonstationaryDoppler, &FadingParams{}},
		{FadingNonstationaryDoppler, &FadingParams{Segments: []DopplerSegment{{Blocks: 0, NormalizedDoppler: 0.1}}}},
		{FadingNonstationaryDoppler, &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.5}}}},
		{FadingNonstationaryDoppler, &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: math.NaN()}}}},
	}
	for i, c := range bad {
		if err := ValidateFading(c.fading, c.params); !errors.Is(err, ErrBadSpec) {
			t.Errorf("bad fading %d (%q): err = %v, want ErrBadSpec", i, c.fading, err)
		}
	}
	good := []struct {
		fading string
		params *FadingParams
	}{
		{"", nil},
		{FadingRayleigh, nil},
		{FadingRician, &FadingParams{KFactor: 0}},
		{FadingRician, &FadingParams{KFactor: 5, LOSPhaseRad: 1}},
		{FadingNakagamiM, &FadingParams{M: 0.5}},
		{FadingNakagamiM, &FadingParams{M: 3}},
		{FadingNakagamiM, &FadingParams{M: 50}},
		{FadingSuzuki, &FadingParams{ShadowSigmaDB: 4.3}},
		{FadingNonstationaryDoppler, &FadingParams{Segments: []DopplerSegment{
			{Blocks: 4, NormalizedDoppler: 0.02}, {Blocks: 4, NormalizedDoppler: 0.1},
		}}},
	}
	for i, c := range good {
		if err := ValidateFading(c.fading, c.params); err != nil {
			t.Errorf("good fading %d (%q): %v", i, c.fading, err)
		}
	}
}

func TestFadingCatalog(t *testing.T) {
	infos := FadingModels()
	if len(infos) != 5 {
		t.Fatalf("catalog has %d models, want 5", len(infos))
	}
	if infos[0].Name != FadingRayleigh {
		t.Fatalf("catalog leads with %q, want the Rayleigh default", infos[0].Name)
	}
	names := FadingNames()
	for i, info := range infos {
		if names[i] != info.Name {
			t.Fatalf("FadingNames[%d] = %q, want %q", i, names[i], info.Name)
		}
		params := &FadingParams{KFactor: 2, M: 1.5, ShadowSigmaDB: 4,
			Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.05}}}
		if err := ValidateFading(info.Name, params); err != nil {
			t.Errorf("catalog model %q does not validate with full params: %v", info.Name, err)
		}
	}
}

func TestSegmentIndexAt(t *testing.T) {
	segs := []DopplerSegment{{Blocks: 3, NormalizedDoppler: 0.02}, {Blocks: 2, NormalizedDoppler: 0.1}}
	want := []int{0, 0, 0, 1, 1, 1, 1} // last segment persists past the trajectory
	for b, w := range want {
		if got := SegmentIndexAt(segs, uint64(b)); got != w {
			t.Errorf("SegmentIndexAt(%d) = %d, want %d", b, got, w)
		}
	}
	if got := SegmentIndexAt(nil, 7); got != 0 {
		t.Errorf("SegmentIndexAt(nil, 7) = %d, want 0", got)
	}
}

// TestCanonicalFading pins the canonicalization rules: the Rayleigh default
// encodes to the pre-zoo bytes, parameters other models read are dropped, and
// defaults are resolved.
func TestCanonicalFading(t *testing.T) {
	base := Model{Type: ModelEq22}
	rayleigh := Model{Type: ModelEq22, Fading: FadingRayleigh,
		Params: &FadingParams{} /* empty params carry no information */}
	if !bytes.Equal(base.Canonical(), rayleigh.Canonical()) {
		t.Fatalf("explicit rayleigh canonical differs from default:\n%s\n%s",
			base.Canonical(), rayleigh.Canonical())
	}
	// A foreign parameter must not change the canonical encoding.
	a := Model{Type: ModelEq22, Fading: FadingRician, Params: &FadingParams{KFactor: 2}}
	b := Model{Type: ModelEq22, Fading: FadingRician, Params: &FadingParams{KFactor: 2, M: 9}}
	if !bytes.Equal(a.Canonical(), b.Canonical()) {
		t.Fatalf("foreign param changed rician canonical:\n%s\n%s", a.Canonical(), b.Canonical())
	}
	// The Suzuki coherence default must resolve.
	c := Model{Type: ModelEq22, Fading: FadingSuzuki, Params: &FadingParams{ShadowSigmaDB: 4}}
	d := Model{Type: ModelEq22, Fading: FadingSuzuki,
		Params: &FadingParams{ShadowSigmaDB: 4, ShadowCoherence: DefaultShadowCoherence}}
	if !bytes.Equal(c.Canonical(), d.Canonical()) {
		t.Fatalf("suzuki coherence default not resolved:\n%s\n%s", c.Canonical(), d.Canonical())
	}
}

// TestCanonicalFadingDistinguishesParams is the behavioral smoke test for
// the fading side of the content address. Field-by-field exhaustiveness of
// Model and FadingParams is enforced at compile time by the canonfields
// analyzer (markers "fadinglint:canon=Canonical" and
// "fadinglint:canon=canonicalFading"; see docs/linting.md), which replaced
// the reflection-driven per-field audit of ISSUE 7 that lived here.
// DopplerSegment keeps full behavioral coverage: it is JSON-encoded
// wholesale inside Segments, a data flow the analyzer cannot attribute to
// individual fields, so dropping one from the encoding would only surface
// here.
func TestCanonicalFadingDistinguishesParams(t *testing.T) {
	type coverage struct {
		base   Model
		mutate func(*Model)
	}
	cases := map[string]coverage{
		"Fading": {Model{Type: ModelEq22}, func(m *Model) {
			m.Fading, m.Params = FadingNakagamiM, &FadingParams{M: 2}
		}},
		"KFactor": {Model{Type: ModelEq22, Fading: FadingRician, Params: &FadingParams{KFactor: 2}},
			func(m *Model) { m.Params = &FadingParams{KFactor: 3} }},
		"ShadowCoherence": {Model{Type: ModelEq22, Fading: FadingSuzuki, Params: &FadingParams{ShadowSigmaDB: 4}},
			func(m *Model) { m.Params = &FadingParams{ShadowSigmaDB: 4, ShadowCoherence: 64} }},
		// DopplerSegment fields, one case each.
		"Segments.Blocks": {Model{Type: ModelEq22, Fading: FadingNonstationaryDoppler,
			Params: &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.05}}}},
			func(m *Model) {
				m.Params = &FadingParams{Segments: []DopplerSegment{{Blocks: 4, NormalizedDoppler: 0.05}}}
			}},
		"Segments.NormalizedDoppler": {Model{Type: ModelEq22, Fading: FadingNonstationaryDoppler,
			Params: &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.05}}}},
			func(m *Model) {
				m.Params = &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.1}}}
			}},
	}
	for name, cov := range cases {
		if err := cov.base.Validate(); err != nil {
			t.Errorf("%s: base model invalid: %v", name, err)
			continue
		}
		before := cov.base.Canonical()
		mutated := cov.base
		cov.mutate(&mutated)
		if err := mutated.Validate(); err != nil {
			t.Errorf("%s: mutated model invalid: %v", name, err)
			continue
		}
		if bytes.Equal(before, mutated.Canonical()) {
			t.Errorf("%s is dropped from the canonical encoding: %s", name, before)
		}
	}
}
