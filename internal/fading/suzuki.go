package fading

import (
	"math"

	"repro/internal/dsp"
)

// suzuki multiplies the Rayleigh fading line by correlated lognormal
// shadowing:
//
//	z'_j(t) = z_j(t) · 10^{σ_dB·g_j(t)/20}
//
// g_j(t) is a unit-variance Gaussian process built from independent N(0,1)
// knots placed every coherence samples on the global time axis and
// interpolated in between with variance-preserving weights, so the marginal
// shadowing law is exactly lognormal at every instant while staying
// continuous within and across blocks. Each knot is a pure hash of
// (seed, envelope, knot index) — no RNG state — so shadowing commutes with
// random access: block k carries the same shadowing whether reached by
// streaming from 0 or by a direct GenerateBlockAt(k).
type suzuki struct {
	sigmaDB   float64
	coherence uint64
	seed      uint64
}

func newSuzuki(sigmaDB float64, coherence int, seed int64) *suzuki {
	return &suzuki{sigmaDB: sigmaDB, coherence: uint64(coherence), seed: uint64(seed)}
}

// mix64 is the splitmix64 output permutation (additive constant included):
// a bijective avalanche mix used to hash (seed, envelope, knot) triples.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// knot returns the standard-normal shadowing knot for (envelope, index) via
// Box–Muller on two hash-derived uniforms.
func (t *suzuki) knot(env int, i uint64) float64 {
	h := mix64(mix64(mix64(t.seed)^uint64(env+1)) ^ i)
	u1 := float64(mix64(h)>>11) / (1 << 53)   // [0, 1)
	u2 := float64(mix64(h+1)>>11) / (1 << 53) // [0, 1)
	// 1−u1 ∈ (0, 1] keeps the log finite.
	return math.Sqrt(-2*math.Log(1-u1)) * math.Cos(2*math.Pi*u2)
}

// fadinglint:allocfree
func (t *suzuki) Apply(env int, offset uint64, z []complex128, r []float64) {
	c := t.coherence
	lastKnot := ^uint64(0)
	var a, b float64
	for i := range z {
		ti := offset + uint64(i)
		k := ti / c
		if k != lastKnot {
			a, b = t.knot(env, k), t.knot(env, k+1)
			lastKnot = k
		}
		w := float64(ti-k*c) / float64(c)
		// Variance-preserving interpolation: the weights are normalized so
		// g remains marginally N(0, 1) between knots, not just at them.
		g := ((1-w)*a + w*b) / math.Sqrt((1-w)*(1-w)+w*w)
		l := math.Pow(10, t.sigmaDB*g/20)
		z[i] = complex(real(z[i])*l, imag(z[i])*l)
	}
	dsp.Envelope(r, z)
}
