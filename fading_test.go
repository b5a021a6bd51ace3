package rayleigh

import (
	"errors"
	"math"
	"testing"
)

// fadingTestCovariance is a small unequal-power Hermitian target exercising
// every zoo model's per-envelope Ω handling.
func fadingTestCovariance() [][]complex128 {
	return [][]complex128{
		{2, 0.5 + 0.3i},
		{0.5 - 0.3i, 1},
	}
}

func TestModelsCatalog(t *testing.T) {
	models := Models()
	if len(models) != 5 {
		t.Fatalf("Models() has %d entries, want 5", len(models))
	}
	if models[0].Name != FadingRayleigh {
		t.Fatalf("catalog leads with %q, want the Rayleigh default", models[0].Name)
	}
	want := map[string]bool{
		FadingRayleigh: true, FadingRician: true, FadingNakagamiM: true,
		FadingSuzuki: true, FadingNonstationaryDoppler: true,
	}
	for _, m := range models {
		if !want[m.Name] {
			t.Errorf("unexpected catalog entry %q", m.Name)
		}
		if m.Title == "" || m.Envelope == "" || m.Constraints == "" {
			t.Errorf("model %q catalog entry incomplete: %+v", m.Name, m)
		}
	}
}

func TestFadingConfigValidation(t *testing.T) {
	cov := fadingTestCovariance()
	bad := []Config{
		{Covariance: cov, Fading: "warp"},
		{Covariance: cov, Fading: FadingRician}, // missing params
		{Covariance: cov, Fading: FadingRician, FadingParams: &FadingParams{KFactor: -1}},
		{Covariance: cov, Fading: FadingNakagamiM, FadingParams: &FadingParams{M: 0.2}},
		{Covariance: cov, Fading: FadingSuzuki, FadingParams: &FadingParams{}},
		// Nonstationary Doppler has no snapshot semantics.
		{Covariance: cov, Fading: FadingNonstationaryDoppler,
			FadingParams: &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.1}}}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("bad config %d (fading %q) accepted", i, cfg.Fading)
		}
	}
	// A nonstationary real-time config must leave NormalizedDoppler to the
	// trajectory.
	_, err := NewStream(RealTimeConfig{
		Covariance: cov, IDFTPoints: 256, NormalizedDoppler: 0.05,
		Fading:       FadingNonstationaryDoppler,
		FadingParams: &FadingParams{Segments: []DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.1}}},
	})
	if !errors.Is(err, ErrInvalidConfig) {
		t.Fatalf("conflicting NormalizedDoppler: err = %v, want ErrInvalidConfig", err)
	}
}

// TestFadingModelsGolden pins a fixed-seed envelope snapshot per model: the
// models must stay byte-stable across refactors, and distinct models must
// produce distinct values from identical seeds.
func TestFadingModelsGolden(t *testing.T) {
	cases := []struct {
		fading string
		params *FadingParams
	}{
		{FadingRayleigh, nil},
		{FadingRician, &FadingParams{KFactor: 5, LOSPhaseRad: 0.3}},
		{FadingNakagamiM, &FadingParams{M: 3}},
		{FadingSuzuki, &FadingParams{ShadowSigmaDB: 4, ShadowCoherence: 64}},
	}
	outputs := make(map[string][]float64, len(cases))
	for _, tc := range cases {
		g, err := New(Config{
			Covariance:   fadingTestCovariance(),
			Seed:         42,
			Fading:       tc.fading,
			FadingParams: tc.params,
		})
		if err != nil {
			t.Fatalf("New(%s): %v", tc.fading, err)
		}
		var envs []float64
		for i := 0; i < 4; i++ {
			s := g.Snapshot()
			envs = append(envs, s.Envelopes...)
			for j, z := range s.Gaussian {
				if got := math.Hypot(real(z), imag(z)); math.Abs(got-s.Envelopes[j]) > 1e-12 {
					t.Fatalf("%s: envelope %d = %g, want |z| = %g", tc.fading, j, s.Envelopes[j], got)
				}
			}
		}
		outputs[tc.fading] = envs

		// The same configuration reproduces itself byte for byte.
		g2, err := New(Config{
			Covariance:   fadingTestCovariance(),
			Seed:         42,
			Fading:       tc.fading,
			FadingParams: tc.params,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			s := g2.Snapshot()
			for j, e := range s.Envelopes {
				if e != envs[i*2+j] {
					t.Fatalf("%s: rerun envelope (%d,%d) = %g, want %g", tc.fading, i, j, e, envs[i*2+j])
				}
			}
		}
	}
	// Distinct models diverge from the shared Gaussian stream.
	for i := range cases {
		for j := i + 1; j < len(cases); j++ {
			a, b := outputs[cases[i].fading], outputs[cases[j].fading]
			same := 0
			for k := range a {
				if a[k] == b[k] {
					same++
				}
			}
			if same == len(a) {
				t.Errorf("models %s and %s produce identical envelopes", cases[i].fading, cases[j].fading)
			}
		}
	}
}

// TestFadingBatchedWorkerInvariance checks the batched snapshot path stays
// bit-identical across worker counts with a sample-indexed model (Suzuki) in
// the loop — the model whose shadowing depends on the global draw index.
func TestFadingBatchedWorkerInvariance(t *testing.T) {
	const count = 64
	mk := func(parallel int) *Generator {
		g, err := New(Config{
			Covariance:   fadingTestCovariance(),
			Seed:         7,
			Parallel:     parallel,
			Fading:       FadingSuzuki,
			FadingParams: &FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 16},
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var runs [][]Snapshot
	for _, workers := range []int{1, 4} {
		g := mk(workers)
		dst := make([]Snapshot, count)
		if err := g.SnapshotsInto(dst); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, dst)
	}
	for i := range runs[0] {
		for j := range runs[0][i].Envelopes {
			if runs[0][i].Envelopes[j] != runs[1][i].Envelopes[j] {
				t.Fatalf("snapshot %d envelope %d differs across worker counts", i, j)
			}
		}
	}
}

// TestNonstationaryStreamResume is the resume contract for the trajectory
// model at the public surface: seeking a fresh cursor straight to block k —
// across the segment seam — reproduces the sequentially consumed block k byte
// for byte, and the per-segment theoretical autocorrelation switches with the
// trajectory.
func TestNonstationaryStreamResume(t *testing.T) {
	cfg := RealTimeConfig{
		Covariance: fadingTestCovariance(),
		IDFTPoints: 256,
		Seed:       99,
		Fading:     FadingNonstationaryDoppler,
		FadingParams: &FadingParams{Segments: []DopplerSegment{
			{Blocks: 2, NormalizedDoppler: 0.02},
			{Blocks: 2, NormalizedDoppler: 0.12},
		}},
	}
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	c, err := s.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	const count = 6
	seq := make([]*Block, count)
	for i := range seq {
		seq[i] = &Block{}
		if err := c.Next(seq[i]); err != nil {
			t.Fatal(err)
		}
	}
	// A fresh stream's cursor seeks directly to every position.
	s2, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.NewCursor()
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{}
	for _, idx := range []uint64{5, 1, 3, 0, 2, 4} {
		if err := c2.BlockAt(idx, b); err != nil {
			t.Fatal(err)
		}
		for j := range b.Gaussian {
			for l := range b.Gaussian[j] {
				if b.Gaussian[j][l] != seq[idx].Gaussian[j][l] || b.Envelopes[j][l] != seq[idx].Envelopes[j][l] {
					t.Fatalf("block %d sample (%d,%d) differs on resume", idx, j, l)
				}
			}
		}
	}
	// The designed autocorrelation follows the trajectory segments.
	if a, b := s.TheoreticalAutocorrelationAt(0, 7), s.TheoreticalAutocorrelationAt(3, 7); a == b {
		t.Errorf("autocorrelation identical across segments: %g", a)
	}
	if a, b := s.TheoreticalAutocorrelationAt(3, 7), s.TheoreticalAutocorrelationAt(5, 7); a != b {
		t.Errorf("last segment does not persist: %g vs %g", a, b)
	}
}
