// Package randx provides seeded random sampling primitives for the fading
// generators: real and complex Gaussian variates, Rayleigh envelopes and
// uniform phases. All generators are deterministic functions of their seed so
// that experiments and tests are reproducible.
package randx

import (
	"math"
	"math/rand"
)

// RNG wraps a seeded source with the sampling helpers the generators need.
// It is not safe for concurrent use; create one RNG per goroutine (Split
// derives independent streams).
type RNG struct {
	src *rand.Rand
	// sm is the underlying splitmix64 source. Gaussian draws go through the
	// package's direct ziggurat on it instead of the stdlib's
	// interface-dispatched sampler, which roughly halves the per-draw cost.
	sm *splitmix64
}

// New returns an RNG seeded with the given seed. The underlying source is a
// splitmix64: construction is O(1) (the stdlib source pays a 607-word seeding
// pass, ~12 µs, which matters when Split derives one stream per envelope) and
// Gaussian draws go through the package's direct ziggurat instead of the
// stdlib's interface-dispatched one, which roughly halves the per-draw cost on
// the generation hot paths. Streams remain deterministic functions of the
// seed.
func New(seed int64) *RNG {
	sm := &splitmix64{state: uint64(seed)}
	return &RNG{src: rand.New(sm), sm: sm}
}

// Split derives a new, independently seeded RNG from this one. The derived
// stream is a deterministic function of the parent state, so a simulation
// driven by a single seed remains reproducible even when it fans out into
// per-branch generators.
func (r *RNG) Split() *RNG {
	return New(r.src.Int63())
}

// SplitSeed draws the seed the next Split call would use, advancing this RNG
// exactly as Split does but without allocating a child. Reseed(r.SplitSeed())
// on a reusable RNG reproduces Split allocation-free.
func (r *RNG) SplitSeed() int64 {
	return r.src.Int63()
}

// SplitSeedAt returns the seed of the (i+1)-th consecutive Split (or
// SplitSeed) call on this RNG without advancing it: an O(1) random-access
// view of the split sequence. It is only meaningful on an RNG used purely as
// a split root — any interleaved sampling call would consume the same
// underlying splitmix64 outputs the formula indexes.
func (r *RNG) SplitSeedAt(i uint64) int64 {
	// The i-th split consumes the i-th splitmix64 output: one additive state
	// step plus the mix permutation, both reproducible from the frozen state.
	z := r.sm.state + (i+1)*splitmixGamma
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// SplitAt returns the RNG the (i+1)-th consecutive Split call on this RNG
// would produce, without advancing it (see SplitSeedAt for the root-only
// caveat). Resumable streams derive block k's generator directly instead of
// replaying k splits.
func (r *RNG) SplitAt(i uint64) *RNG {
	return New(r.SplitSeedAt(i))
}

// Reseed resets the RNG in place to the state New(seed) would construct,
// without allocating. It lets long-running services reuse per-worker RNGs
// across deterministic work items.
func (r *RNG) Reseed(seed int64) {
	r.src.Seed(seed)
}

// splitmix64 is a tiny O(1)-construction Source64 (Steele, Lea & Flood,
// "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014). The
// default math/rand source pays a 607-word seeding pass on construction
// (~12 µs), which dominates when a batched generation path derives one
// stream per chunk of work; splitmix64 construction is two words.
type splitmix64 struct{ state uint64 }

// splitmixGamma is the additive state step of splitmix64; SplitSeedAt relies
// on state_n = state_0 + n·gamma to index the output sequence in O(1).
const splitmixGamma = 0x9e3779b97f4a7c15

func (s *splitmix64) Uint64() uint64 {
	s.state += splitmixGamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// Float64 returns a uniform sample in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Intn returns a uniform sample in [0, n).
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Normal returns a Gaussian sample with the given mean and standard
// deviation.
func (r *RNG) Normal(mean, stddev float64) float64 {
	return mean + stddev*r.sm.normFloat64()
}

// FillNormal fills dst with independent zero-mean Gaussian samples with
// variance sigma2, drawing exactly the sequence of len(dst) Normal calls with
// standard deviation sqrt(sigma2), without allocating.
//
// fadinglint:allocfree
func (r *RNG) FillNormal(dst []float64, sigma2 float64) {
	std := math.Sqrt(sigma2)
	for i := range dst {
		dst[i] = std * r.sm.normFloat64()
	}
}

// FillComplexNormal fills dst with independent zero-mean circularly-symmetric
// complex Gaussian samples of total variance sigma2 (sigma2/2 per real and
// imaginary dimension), the CN(0, sigma2) convention used throughout the
// paper, without allocating.
//
// fadinglint:allocfree
func (r *RNG) FillComplexNormal(dst []complex128, sigma2 float64) {
	std := math.Sqrt(sigma2 / 2)
	for i := range dst {
		dst[i] = complex(std*r.sm.normFloat64(), std*r.sm.normFloat64())
	}
}

// Rayleigh returns a Rayleigh-distributed sample with scale parameter sigma
// (the per-dimension standard deviation of the underlying complex Gaussian),
// i.e. mean sigma·sqrt(pi/2) and mean square 2·sigma².
func (r *RNG) Rayleigh(sigma float64) float64 {
	// Inverse-CDF sampling: F(x) = 1 − exp(−x²/(2σ²)).
	u := r.src.Float64()
	return sigma * math.Sqrt(-2*math.Log(1-u))
}
