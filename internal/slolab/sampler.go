package slolab

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Sampler is a concurrency-safe collector of latency samples in
// milliseconds. Every measurement path of the lab — block inter-arrival
// times, session-create round trips — funnels through one, so every
// percentile the lab reports is digested the same way.
type Sampler struct {
	mu sync.Mutex
	ms []float64
}

// Record adds one duration sample.
func (s *Sampler) Record(d time.Duration) {
	s.RecordMs(float64(d) / float64(time.Millisecond))
}

// RecordMs adds one sample already expressed in milliseconds.
func (s *Sampler) RecordMs(ms float64) {
	s.mu.Lock()
	s.ms = append(s.ms, ms)
	s.mu.Unlock()
}

// Samples returns a copy of the raw samples in arrival order.
func (s *Sampler) Samples() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]float64, len(s.ms))
	copy(out, s.ms)
	return out
}

// Len returns the sample count.
func (s *Sampler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// Summary reduces the collected samples to the gate statistics.
func (s *Sampler) Summary() LatencySummary {
	return Summarize(s.Samples())
}

// LatencySummary is the percentile digest a latency gate evaluates. All
// values are milliseconds.
type LatencySummary struct {
	Count  int     `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// Summarize digests raw millisecond samples. An empty input yields the zero
// summary (Count 0), which every gate treats as "no data".
func Summarize(ms []float64) LatencySummary {
	if len(ms) == 0 {
		return LatencySummary{}
	}
	sorted := make([]float64, len(ms))
	copy(sorted, ms)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return LatencySummary{
		Count:  len(sorted),
		MeanMs: sum / float64(len(sorted)),
		P50Ms:  Percentile(sorted, 0.50),
		P95Ms:  Percentile(sorted, 0.95),
		P99Ms:  Percentile(sorted, 0.99),
		MaxMs:  sorted[len(sorted)-1],
	}
}

// Percentile returns the q-th percentile (0 < q <= 1) of an ascending-sorted
// sample using the nearest-rank method: the smallest value with at least
// q·n samples at or below it. Deterministic and monotone in q, which keeps
// rerun comparisons honest (no interpolation between noisy neighbors).
func Percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
