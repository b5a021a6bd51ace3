// Package dsp provides the signal-processing substrate of the real-time
// fading generator: precomputed radix-4 inverse discrete Fourier transform
// plans for power-of-two lengths, with the 1/M normalization the
// Young–Beaulieu IDFT generator uses, and the envelope kernel that turns a
// row of complex samples into their magnitudes. A plan also transforms
// low-pass spectra already stored in bit-reversed order, so a caller that
// writes a band-limited spectrum bin by bin skips the permutation pass, and
// the transform's first pass skips the groups of bins outside the band,
// with the same output bits as the full transform.
//
// On amd64 the radix-4 stages after the first pass and the envelope kernel
// run as SSE2 assembly (kernel_amd64.s), which every amd64 CPU has. Each
// packed operation repeats a scalar operation of the Go loop in this file in
// the same order, without fused multiply-adds, so the assembly gives the
// amd64 Go loops' bits (kernel_amd64_test.go holds it to that). Every other
// architecture runs the same Go loops, where the compiler may fuse a
// multiply into an add (arm64 does), so its bits may differ from amd64's,
// as they did before the assembly. The assembly writes only the slices it
// is handed and reads only the plan's read-only twiddle tables. The race
// detector does not see assembly's memory accesses, so race builds run the
// Go loops on amd64 too.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan precomputes everything an inverse transform of one fixed
// power-of-two length needs — the bit-reversal permutation and, for each
// radix-4 stage after the first pass, the twiddle factors in the order the
// butterflies read them — so repeated transforms never call cmplx.Exp and
// never allocate. The first pass (the q = 1 radix-4 stage, or a lone
// radix-2 pass at odd powers of two) needs no twiddles and runs a Go loop
// over fixed-size groups; every later stage runs the SSE2 kernel on amd64,
// with the amd64 Go loops' bits, and the Go loops elsewhere. This is the
// engine behind the zero-allocation real-time generation path, where the
// same IDFT length is transformed once per envelope per block.
//
// A Plan is read-only after construction and safe for concurrent use.
type Plan struct {
	n int

	// perm is the bit-reversal permutation, radix2 marks an odd power of two
	// (its first pass is a lone radix-2 pass rather than the q = 1 radix-4
	// stage), and stages holds the twiddles of the radix-4 stages after that
	// first pass, in execution order: entry k of a stage's q = len(stages[i])
	// entries holds the factors butterfly k of every group multiplies by;
	// entry 0 is never read, because the k = 0 butterfly's factors are all 1.
	perm   []int32
	radix2 bool
	stages [][]twiddles
}

// twiddle is one factor w = wr + i·wi of the inverse transform, stored as
// [wr, wr, −wi, wi]: the broadcast layout in which a packed complex multiply
// forms x·w as x·[wr, wr] + swap(x)·[−wi, wi].
type twiddle [4]float64

// at returns the factor wr + i·wi.
func (t *twiddle) at() complex128 { return complex(t[0], t[3]) }

// broadcast lays out the inverse factor conj(f) of the forward factor f.
func broadcast(f complex128) twiddle {
	return twiddle{real(f), real(f), imag(f), -imag(f)}
}

// twiddles are the factors of one butterfly: w1 = ω^k and w2 = ω^2k for the
// stage's root of unity ω, and their product w3 = w1·w2, formed once here
// instead of in every butterfly.
type twiddles struct{ w1, w2, w3 twiddle }

// factors returns the butterfly's three factors.
func (t *twiddles) factors() (w1, w2, w3 complex128) {
	return t.w1.at(), t.w2.at(), t.w3.at()
}

// plans caches plans by length. A plan is read-only after construction, so
// one shared instance serves every generator of the same length instead of
// each recomputing identical twiddle tables and a bit-reversal permutation.
var plans sync.Map // int -> *Plan

// NewPlan returns the shared plan for length n, which must be a power of
// two; any other length panics. doppler.FilterSpec.Validate rejects every
// other IDFT length before a generator asks for its plan.
func NewPlan(n int) *Plan {
	if n < 1 || n&(n-1) != 0 {
		panic("dsp: NewPlan length must be a power of two")
	}
	if cached, ok := plans.Load(n); ok {
		return cached.(*Plan)
	}
	shared, _ := plans.LoadOrStore(n, newPlan(n))
	return shared.(*Plan)
}

// BitReversed returns the position of bin k in bit-reversed order, where
// InverseBitReversed expects it.
func (p *Plan) BitReversed(k int) int { return int(p.perm[k]) }

// newPlan builds the permutation and the stage tables, with one allocation
// for every stage's twiddles. With ω = exp(−2πi/n) and stride s = n/(4q),
// butterfly k of stage q multiplies by the conjugates of the forward factors
// w1 = ω^(k·s) and w2 = ω^(2k·s). The last stage (q = n/4, s = 1) first
// holds ω^j and ω^(2j) for every j < n/4, each from its own cmplx.Exp, in
// the four entries of its w1; every stage, the last one last, then lays out
// its entry k from the last stage's entry k·s, with w3 the conjugate of the
// complex product w1·w2, which is conj(w1)·conj(w2) bit for bit.
func newPlan(n int) *Plan {
	logN := bits.TrailingZeros(uint(n))
	p := &Plan{n: n, perm: make([]int32, n), radix2: logN&1 == 1}
	for i := range p.perm {
		p.perm[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	q0 := 4
	if p.radix2 {
		q0 = 2
	}
	total, count := 0, 0
	for q := q0; 4*q <= n; q *= 4 {
		total += q
		count++
	}
	if count == 0 {
		return p
	}
	slab := make([]twiddles, total)
	p.stages = make([][]twiddles, count)
	for i := range p.stages {
		q := q0 << (2 * i)
		p.stages[i] = slab[:q:q]
		slab = slab[q:]
	}
	last := p.stages[count-1]
	for k := range last {
		w1, w2 := root(n, k), root(n, 2*k)
		last[k].w1 = twiddle{real(w1), imag(w1), real(w2), imag(w2)}
	}
	for _, st := range p.stages {
		stride := n / (4 * len(st))
		for k := range st {
			r := last[k*stride].w1
			w1, w2 := complex(r[0], r[1]), complex(r[2], r[3])
			st[k] = twiddles{broadcast(w1), broadcast(w2), broadcast(w1 * w2)}
		}
	}
	return p
}

// root returns exp(-2πi·j/n).
func root(n, j int) complex128 {
	angle := -2 * math.Pi * float64(j) / float64(n)
	return cmplx.Exp(complex(0, angle))
}

// InverseScaled computes the in-place inverse DFT of x, which must have the
// plan's length, with the 1/M normalization used by the Young–Beaulieu IDFT
// generator (the same convention as IFFT).
//
// fadinglint:allocfree
func (p *Plan) InverseScaled(x []complex128) {
	if len(x) != p.n {
		panic("dsp: plan length mismatch")
	}
	for i, j := range p.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.radix4(x, p.n)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// InverseBitReversed computes the in-place unnormalized inverse DFT (the +i
// exponent without the 1/M factor) of a low-pass spectrum stored in
// bit-reversed order (bin k at BitReversed(k)), leaving the time samples in
// natural order. Only bins k ≤ halfWidth and k ≥ M−halfWidth may be
// non-zero; every other bin must hold +0, as clear leaves it. The first
// pass skips each group of bins that lies wholly outside that band: the pass
// only adds and subtracts, so such a group's +0 inputs would come out as +0
// anyway, and the result is the dense transform's, bit for bit. A halfWidth
// of M/2 or more admits every bin.
//
// fadinglint:allocfree
func (p *Plan) InverseBitReversed(x []complex128, halfWidth int) {
	if len(x) != p.n {
		panic("dsp: plan length mismatch")
	}
	if halfWidth < 0 {
		panic("dsp: InverseBitReversed half-width must not be negative")
	}
	p.radix4(x, halfWidth)
}

// radix4 is an iterative mixed radix-4/radix-2 Cooley–Tukey transform on
// bit-reversal-permuted data with per-stage twiddle tables. Radix-4 halves
// the number of passes over the array relative to radix-2, which dominates
// once the transform exceeds L1 (a 4096-point block is 64 KiB). With plain
// bit-reversal (rather than base-4 digit reversal) the two middle sub-blocks
// of every group arrive swapped, so the butterfly multiplies the sub-block
// at offset q by w2 and the one at 2q by w1.
//
// The first pass is the q = 1 radix-4 stage, or a lone radix-2 pass at odd
// powers of two; it has no twiddles and visits only the groups a spectrum
// of the given half-width reaches (see InverseBitReversed), each group
// from its start in perm, so a dense transform (half-width n) walks every
// group in bit-reversed order. Every later stage, the q = 4 stage after a
// radix-4 first pass included, runs stageKernel over length-q sub-blocks:
// the SSE2 stage assembly on amd64, stageGo elsewhere.
//
// Every loop between a "bce:begin" and a "bce:end" comment compiles without
// a bounds check; CI builds the package with -d=ssa/check_bce to hold it so.
//
// fadinglint:allocfree
func (p *Plan) radix4(x []complex128, halfWidth int) {
	if p.radix2 {
		p.firstRadix2(x, halfWidth)
	} else {
		p.firstRadix4(x, halfWidth)
	}
	for _, tw := range p.stages {
		stageKernel(x, tw)
	}
}

// bandGroups returns the starts of the first-pass groups of width w (4, or
// 2 at odd powers of two) that a spectrum of half-width b reaches, in two
// runs. Such a group holds the bins k ≡ r (mod n/w) of one residue r < n/w
// and starts at perm[r]; it holds a bin k ≤ b or k ≥ n−b only when r ≤ b or
// r ≥ n/w − b. A b ≥ n/w − 1 puts every group in low, in residue order.
func (p *Plan) bandGroups(w, b int) (low, high []int32) {
	groups := p.n / w
	lo := min(b+1, groups)
	return p.perm[:lo], p.perm[max(groups-b, lo):groups]
}

// firstRadix2 is the lone radix-2 pass of an odd power of two over the
// pairs bandGroups selects, each from its start.
//
// fadinglint:allocfree
func (p *Plan) firstRadix2(x []complex128, halfWidth int) {
	low, high := p.bandGroups(2, halfWidth)
	for _, run := range [2][]int32{low, high} {
		for _, s := range run {
			g := (*[2]complex128)(x[s:])
			// bce:begin
			g[0], g[1] = g[0]+g[1], g[0]-g[1]
			// bce:end
		}
	}
}

// firstRadix4 is the q = 1 radix-4 stage over the groups bandGroups
// selects, each from its start.
//
// fadinglint:allocfree
func (p *Plan) firstRadix4(x []complex128, halfWidth int) {
	low, high := p.bandGroups(4, halfWidth)
	for _, run := range [2][]int32{low, high} {
		for _, s := range run {
			g := (*[4]complex128)(x[s:])
			// bce:begin
			g[0], g[1], g[2], g[3] = butterfly(g[0], g[1], g[2], g[3])
			// bce:end
		}
	}
}

// stageGo is one radix-4 stage over every group of four length-q
// sub-blocks of x, q = len(tw) ≥ 2; len(x) is a multiple of 4q. It is the
// kernel of every architecture but amd64 and the reference the amd64
// assembly is tested against.
//
// fadinglint:allocfree
func stageGo(x []complex128, tw []twiddles) {
	q := len(tw)
	for g := x; len(g) >= 4*q; g = g[4*q:] {
		x0 := g[:q]
		x1, x2, x3 := g[q:2*q], g[2*q:3*q], g[3*q:4*q]
		// Equal lengths let the compiler drop every bounds check below.
		x1, x2, x3, t := x1[:len(x0)], x2[:len(x0)], x3[:len(x0)], tw[:len(x0)]

		// k = 0: all twiddles are 1.
		x0[0], x1[0], x2[0], x3[0] = butterfly(x0[0], x1[0], x2[0], x3[0])
		// bce:begin
		for k := 1; k < len(x0); k++ {
			w1, w2, w3 := t[k].factors()
			x0[k], x1[k], x2[k], x3[k] = butterfly(x0[k], x1[k]*w2, x2[k]*w1, x3[k]*w3)
		}
		// bce:end
	}
}

// butterfly is the radix-4 butterfly of the inverse transform on twiddled
// operands: a and c are one radix-2 pair, b and d the other.
func butterfly(a, c, b, d complex128) (y0, y1, y2, y3 complex128) {
	apc, amc := a+c, a-c
	bpd, bmd := b+d, b-d
	t := complex(-imag(bmd), real(bmd)) // +i·bmd
	return apc + bpd, amc + t, apc - bpd, amc - t
}

// Envelope sets r[l] = |z[l]| for every sample of the row z, computed as
// the plain √(re² + im²): the samples it serves are O(σ_g), far from the
// overflow and underflow range math.Hypot guards against, and a square root
// is several times cheaper. On amd64 SSE2 assembly takes two samples per
// instruction, with the bits of math.Sqrt(re*re + im*im) as amd64 computes
// it; elsewhere envelopeGo runs. r and z must have the same length.
//
// fadinglint:allocfree
func Envelope(r []float64, z []complex128) {
	if len(r) != len(z) {
		panic("dsp: Envelope length mismatch")
	}
	envelopeKernel(r, z)
}

// envelopeGo is Envelope's loop: the kernel off amd64 and the reference on
// it.
//
// fadinglint:allocfree
func envelopeGo(r []float64, z []complex128) {
	r = r[:len(z)]
	for l, v := range z {
		re, im := real(v), imag(v)
		r[l] = math.Sqrt(re*re + im*im)
	}
}
