package core

import (
	"math"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/doppler"
	"repro/internal/fading"
)

func newSegmentedGenerator(t testing.TB, seed int64, m int, segs []chanspec.DopplerSegment, tr fading.Transform) *RealTimeGenerator {
	t.Helper()
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance:      chanspec.Eq22Covariance(),
		Filter:          doppler.FilterSpec{M: m},
		Seed:            seed,
		DopplerSegments: segs,
		Transform:       tr,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	return g
}

var testTrajectory = []chanspec.DopplerSegment{
	{Blocks: 3, NormalizedDoppler: 0.02},
	{Blocks: 3, NormalizedDoppler: 0.1},
}

func TestNonstationaryValidation(t *testing.T) {
	bad := []RealTimeConfig{
		{Covariance: chanspec.Eq22Covariance(), Filter: doppler.FilterSpec{M: 512, NormalizedDoppler: 0.05},
			DopplerSegments: testTrajectory}, // conflicting top-level Doppler
		{Covariance: chanspec.Eq22Covariance(), Filter: doppler.FilterSpec{M: 512},
			DopplerSegments: []chanspec.DopplerSegment{{Blocks: 0, NormalizedDoppler: 0.05}}},
		{Covariance: chanspec.Eq22Covariance(), Filter: doppler.FilterSpec{M: 512},
			DopplerSegments: []chanspec.DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.7}}},
	}
	for i, cfg := range bad {
		if _, err := NewRealTimeGenerator(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestNonstationarySegmentVariance pins the per-segment σ²_g: blocks in
// different trajectory legs are whitened with their own Eq. (19) variance,
// and the last leg persists past the trajectory end.
func TestNonstationarySegmentVariance(t *testing.T) {
	g := newSegmentedGenerator(t, 31, 512, testTrajectory, nil)
	want0 := g.segments[0].sigmaG2
	want1 := g.segments[1].sigmaG2
	if want0 == want1 {
		t.Fatalf("distinct Doppler segments share σ²_g = %g", want0)
	}
	if g.SampleVariance() != want0 {
		t.Fatalf("SampleVariance() = %g, want segment 0's %g", g.SampleVariance(), want0)
	}
	for k := range uint64(8) {
		want := want0
		if k >= 3 {
			want = want1 // the last segment persists past the trajectory
		}
		if got := blockSigmaG2(g, k); got != want {
			t.Errorf("block %d σ²_g = %g, want %g", k, got, want)
		}
	}
	if a, b := g.TheoreticalAutocorrelationAt(0, 5), g.TheoreticalAutocorrelationAt(5, 5); a == b {
		t.Errorf("autocorrelation identical across segments: %g", a)
	}
}

// TestNonstationaryWorkerAndResumeIdentity is the determinism contract for
// the trajectory model: every worker count produces identical bytes, and
// random access reproduces any position, including across the segment seam.
func TestNonstationaryWorkerAndResumeIdentity(t *testing.T) {
	const count = 8
	var runs [][]*Block
	for _, workers := range []int{1, 2, 5} {
		g := newSegmentedGenerator(t, 77, 512, testTrajectory, nil)
		runs = append(runs, blocksAt(t, g, 0, count, workers))
	}
	for r := 1; r < len(runs); r++ {
		for i := range runs[0] {
			blocksEqual(t, "nonstationary worker invariance", runs[0][i], runs[r][i])
		}
	}
	// Random access at every position, from a fresh generator.
	g := newSegmentedGenerator(t, 77, 512, testTrajectory, nil)
	s := g.NewBlockScratch()
	b := NewBlock(g.N(), g.BlockLength())
	for _, idx := range []uint64{5, 0, 3, 7, 2} { // out of order on purpose
		if err := g.GenerateBlockAt(idx, b, s); err != nil {
			t.Fatalf("GenerateBlockAt(%d): %v", idx, err)
		}
		blocksEqual(t, "nonstationary random access", runs[0][idx], b)
		want := g.segments[0].sigmaG2
		if idx >= 3 {
			want = g.segments[1].sigmaG2
		}
		if got := blockSigmaG2(g, idx); got != want {
			t.Fatalf("block %d σ²_g %g, want %g", idx, got, want)
		}
	}
	// Split batches resume the same sequence across the segment seam.
	g2 := newSegmentedGenerator(t, 77, 512, testTrajectory, nil)
	head := blocksAt(t, g2, 0, 2, 1)
	tail := blocksAt(t, g2, uint64(len(head)), count-len(head), 3)
	for i := range head {
		blocksEqual(t, "nonstationary resume head", runs[0][i], head[i])
	}
	for i := range tail {
		blocksEqual(t, "nonstationary resume tail", runs[0][i+len(head)], tail[i])
	}
}

// offsetTransform marks every sample with its global offset so the tests can
// verify each path hands the transform the right block index.
type offsetTransform struct{ m int }

func (o offsetTransform) Apply(env int, offset uint64, z []complex128, r []float64) {
	for i := range z {
		gain := 1 + float64(offset+uint64(i))/float64(o.m*1000)
		z[i] = complex(real(z[i])*gain, imag(z[i])*gain)
		re, im := real(z[i]), imag(z[i])
		r[i] = math.Sqrt(re*re + im*im)
	}
}

// TestTransformOffsetsConsistentAcrossPaths checks the sequential, batched,
// worker-pooled and random-access paths all pass the same global sample
// offsets to the fading transform.
func TestTransformOffsetsConsistentAcrossPaths(t *testing.T) {
	const count = 6
	const m = 512
	tr := offsetTransform{m: m}
	mk := func() *RealTimeGenerator {
		g, err := NewRealTimeGenerator(RealTimeConfig{
			Covariance: chanspec.Eq22Covariance(),
			Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
			Seed:       13,
			Transform:  tr,
		})
		if err != nil {
			t.Fatalf("NewRealTimeGenerator: %v", err)
		}
		return g
	}
	seq := blocksAt(t, mk(), 0, count, 1)
	par := blocksAt(t, mk(), 0, count, 4)
	for i := range seq {
		blocksEqual(t, "transform worker invariance", seq[i], par[i])
	}
	gAt := mk()
	s := gAt.NewBlockScratch()
	b := NewBlock(gAt.N(), m)
	for _, idx := range []uint64{4, 1, 0} {
		if err := gAt.GenerateBlockAt(idx, b, s); err != nil {
			t.Fatal(err)
		}
		blocksEqual(t, "transform random access", seq[idx], b)
	}
	// Envelopes reflect the transformed samples.
	for j := range seq[0].Gaussian {
		for l, v := range seq[0].Gaussian[j] {
			if got, want := seq[0].Envelopes[j][l], math.Hypot(real(v), imag(v)); math.Abs(got-want) > 1e-12 {
				t.Fatalf("envelope (%d,%d) = %g, want |z| = %g", j, l, got, want)
			}
		}
	}
}
