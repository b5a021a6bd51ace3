package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// meter probes one frozen kernel on a fixed number of goroutines. Its probes
// bracket the workload slices of a timed phase; ref is P_ref, the rate the
// kernel ran at on the host where the benchmark landed, so a normalized
// number reads as "what this would have measured on that host".
type meter struct {
	inst  [placements][]kernel // per placement, one instance per goroutine
	reps  int                  // repetitions per goroutine per probe
	ref   float64              // P_ref, in repetitions per second summed over goroutines
	rates []float64
	sink  float64
}

// placements is how many separately allocated copies of its working memory
// a timed phase takes in turn, one per slice: the kernel instances of a
// meter, and the library phase's cursors. The speed of a memory-bound loop
// depends on where its buffers land in the caches, which is fixed for the
// life of an allocation; taking several in turn lets the median over slices
// average that luck out instead of one allocation setting a whole run's
// number.
const placements = 4

func newMeter(newKernel func() kernel, goroutines, reps int, ref float64) *meter {
	m := &meter{reps: reps, ref: ref}
	for p := range m.inst {
		for i := 0; i < goroutines; i++ {
			m.inst[p] = append(m.inst[p], newKernel())
		}
	}
	return m
}

// probe runs one kernel slice and returns its rate: the sum over goroutines
// of each goroutine's own repetitions per second, so a goroutine that was
// descheduled for part of the slice lowers the rate by its share only, as
// it would lower the throughput of the workload's workers.
func (m *meter) probe() float64 {
	inst := m.inst[len(m.rates)%placements]
	sums := make([]float64, len(inst))
	rates := make([]float64, len(inst))
	var wg sync.WaitGroup
	wg.Add(len(inst))
	for i, k := range inst {
		go func(i int, k kernel) {
			defer wg.Done()
			start := time.Now()
			for r := 0; r < m.reps; r++ {
				sums[i] += k.rep()
			}
			rates[i] = float64(m.reps) / time.Since(start).Seconds()
		}(i, k)
	}
	wg.Wait()
	var rate float64
	for i := range rates {
		m.sink += sums[i]
		rate += rates[i]
	}
	m.rates = append(m.rates, rate)
	return rate
}

// slice is one timed workload slice and the kernel rates probed on either
// side of it.
type slice struct {
	work    float64 // work done in the slice, in the phase's unit
	seconds float64 // wall time of the slice
	before  float64 // kernel rate probed just before
	after   float64 // kernel rate probed just after
}

// speed is P_adjacent/P_ref: above 1 when the host ran faster than the
// reference host around this slice.
func (s slice) speed(ref float64) float64 { return (s.before + s.after) / 2 / ref }

// rawRate is the slice's work per second as measured.
func (s slice) rawRate() float64 { return s.work / s.seconds }

// normRate is the slice's work per second scaled by P_ref/P_adjacent.
func (s slice) normRate(ref float64) float64 { return s.rawRate() / s.speed(ref) }

// timed runs step in slices until the deadline, at least minSlices times,
// with a kernel probe between consecutive slices. step(i) performs slice i
// and returns the work it completed.
func (m *meter) timed(deadline time.Time, minSlices int, step func(i int) float64) []slice {
	before := m.probe()
	var out []slice
	for i := 0; i < minSlices || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		work := step(i)
		dt := time.Since(t0).Seconds()
		after := m.probe()
		out = append(out, slice{work: work, seconds: dt, before: before, after: after})
		before = after
	}
	return out
}

// rates returns the median raw and normalized rates over slices.
func rates(slices []slice, ref float64) (raw, norm float64) {
	r := make([]float64, len(slices))
	n := make([]float64, len(slices))
	for i, s := range slices {
		r[i], n[i] = s.rawRate(), s.normRate(ref)
	}
	return median(r), median(n)
}

// sample is one latency observation, tagged with the slice it fell in.
type sample struct {
	ms    float64
	slice int
}

// latencies returns the raw and normalized latencies of samples: a latency
// measured while the host ran fast is scaled up by P_adjacent/P_ref.
func latencies(samples []sample, slices []slice, ref float64) (raw, norm []float64) {
	for _, s := range samples {
		raw = append(raw, s.ms)
		norm = append(norm, s.ms*slices[s.slice].speed(ref))
	}
	return raw, norm
}

// quantile returns the q-quantile of v by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the interquartile range of v over its median.
func spread(v []float64) float64 { return (quantile(v, 0.75) - quantile(v, 0.25)) / median(v) }
