package main

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// kernelDigests pins the output of one repetition of each frozen kernel: an
// edit to a kernel changes what it measures and must fail here.
var kernelDigests = map[string]uint64{
	"ifft":     0x9631855026e5dd4f,
	"invgamma": 0x97874e9a456aaaff,
	"gemm":     0x4971f4bbbccbfa4c,
}

func TestKernelDigestsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other architectures may fuse multiply-adds, which changes the
		// low bits of the outputs.
		t.Skip("digests are pinned on amd64")
	}
	for name, newKernel := range map[string]func() kernel{
		"ifft": newIFFTKernel, "invgamma": newInvGammaKernel, "gemm": newGEMMKernel,
	} {
		k := newKernel()
		k.rep()
		first := k.digest()
		k.rep()
		if again := k.digest(); again != first {
			t.Errorf("%s: repetitions differ: %#x then %#x", name, first, again)
		}
		if first != kernelDigests[name] {
			t.Errorf("%s: digest %#x, pinned %#x", name, first, kernelDigests[name])
		}
	}
}

func TestEqualSeedsGiveEqualInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := newInputs(w, 42), newInputs(w, 42)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 42 generated different inputs", w.name)
		}
		if reflect.DeepEqual(a, newInputs(w, 43)) {
			t.Errorf("%s: seeds 42 and 43 generated the same inputs", w.name)
		}
		if !reflect.DeepEqual(a.specs(w, 8), b.specs(w, 8)) || !reflect.DeepEqual(a.libSpec(w), b.libSpec(w)) {
			t.Errorf("%s: seed 42 generated different specs", w.name)
		}
	}
}

func TestChurnMix(t *testing.T) {
	in := newInputs(workloadByName("churn-n32"), 7)
	seenRho := make(map[float64]bool)
	var counts [numKinds]int
	for c, ops := range in.Creates {
		usedRho := make(map[float64]bool)
		var history []createOp
		for i, op := range ops {
			counts[op.Kind]++
			switch op.Kind {
			case kindNewModel:
				if seenRho[op.Rho] {
					t.Fatalf("connection %d create %d: new_model reuses ρ %g", c, i, op.Rho)
				}
			case kindNewSeed:
				if !usedRho[op.Rho] {
					t.Fatalf("connection %d create %d: new_seed ρ %g not used before", c, i, op.Rho)
				}
			case kindRepeat:
				found := false
				for _, h := range history[max(0, len(history)-4):] {
					found = found || (h.Rho == op.Rho && h.Seed == op.Seed)
				}
				if !found {
					t.Fatalf("connection %d create %d: repeat is not a recent spec", c, i)
				}
			}
			seenRho[op.Rho], usedRho[op.Rho] = true, true
			history = append(history, op)
		}
	}
	total := 2 * createsPerConn
	for k, n := range counts {
		if share := float64(n) / float64(total); math.Abs(share-1.0/3) > 0.03 {
			t.Errorf("%s share %.3f, want about 1/3", kindNames[k], share)
		}
	}
}

// TestUniformSlowdownLeavesNormalizedMetricsUnchanged slows workload and
// kernel slices down by the same factor and checks that every normalized
// number the benchmark reports stays put while the raw ones move.
func TestUniformSlowdownLeavesNormalizedMetricsUnchanged(t *testing.T) {
	const ref = 1000.0
	base := []slice{
		{work: 3e6, seconds: 0.10, before: 1100, after: 900},
		{work: 3e6, seconds: 0.12, before: 900, after: 950},
		{work: 2e6, seconds: 0.07, before: 950, after: 1200},
	}
	samples := []sample{{ms: 4, slice: 0}, {ms: 7, slice: 1}, {ms: 5, slice: 2}}
	for _, factor := range []float64{0.5, 1.7, 3} {
		slow := make([]slice, len(base))
		for i, s := range base {
			slow[i] = slice{work: s.work, seconds: s.seconds * factor, before: s.before / factor, after: s.after / factor}
		}
		slowSamples := make([]sample, len(samples))
		for i, s := range samples {
			slowSamples[i] = sample{ms: s.ms * factor, slice: s.slice}
		}
		raw0, norm0 := rates(base, ref)
		raw1, norm1 := rates(slow, ref)
		if !approxEqual(norm0, norm1) || approxEqual(raw0, raw1) {
			t.Errorf("factor %g: rate raw %g→%g normalized %g→%g", factor, raw0, raw1, norm0, norm1)
		}
		_, lat0 := latencies(samples, base, ref)
		_, lat1 := latencies(slowSamples, slow, ref)
		for i := range lat0 {
			if !approxEqual(lat0[i], lat1[i]) {
				t.Errorf("factor %g: latency %d normalized %g→%g", factor, i, lat0[i], lat1[i])
			}
		}
		// Setup time is normalized as one slice of unit work.
		s0 := slice{work: 1, seconds: 0.2, before: 1000, after: 1100}
		s1 := slice{work: 1, seconds: 0.2 * factor, before: 1000 / factor, after: 1100 / factor}
		if a, b := s0.seconds*s0.speed(ref), s1.seconds*s1.speed(ref); !approxEqual(a, b) {
			t.Errorf("factor %g: setup normalized %g→%g", factor, a, b)
		}
	}
}

func approxEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b)) }

func TestCoveredUnionsChildIntervals(t *testing.T) {
	iv := [][2]int64{{5, 10}, {0, 3}, {8, 14}, {20, 30}}
	if got := covered(iv, 2, 25); got != 1+9+5 {
		t.Errorf("covered = %d, want 15", got)
	}
}
