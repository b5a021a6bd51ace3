// Package dsp provides the signal-processing substrate of the real-time
// fading generator: precomputed discrete Fourier transform plans (radix-4
// for power-of-two lengths, Bluestein otherwise) with the 1/M normalization
// the Young–Beaulieu IDFT generator uses.
package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan precomputes everything a transform of one fixed length needs — the
// bit-reversal permutation and the twiddle-factor table for power-of-two
// lengths, plus the chirp sequence and its transformed convolution kernel for
// Bluestein lengths — so repeated transforms never call cmplx.Exp and, for
// power-of-two lengths, never allocate. This is the engine behind the
// zero-allocation real-time generation path, where the same IDFT length is
// transformed once per envelope per block.
//
// A Plan is safe for concurrent use when the length is a power of two (all
// cached state is read-only). For other lengths the Bluestein convolution
// uses plan-owned scratch, so each goroutine needs its own Plan.
type Plan struct {
	n    int
	pow2 bool

	// Power-of-two state: perm is the bit-reversal permutation, tw the
	// forward twiddle table tw[k] = exp(-2πi·k/n) for k < n/2, twInv its
	// conjugate for inverse transforms (a separate table keeps the butterfly
	// loop free of per-element conjugation).
	perm  []int32
	tw    []complex128
	twInv []complex128

	// Bluestein state (non-power-of-two lengths): sub is the radix-2 plan of
	// the convolution length m, chirp the forward chirp exp(-iπl²/n), and
	// bFwd/bInv the pre-transformed convolution kernels for each direction.
	sub   *Plan
	m     int
	chirp []complex128
	bFwd  []complex128
	bInv  []complex128
	scr   []complex128
}

// pow2Plans caches power-of-two plans by length. Those plans are read-only
// after construction, so one shared instance serves every generator of the
// same length instead of each recomputing an identical twiddle table and
// bit-reversal permutation. Bluestein plans own convolution scratch and are
// never cached.
var pow2Plans sync.Map // int -> *Plan

// NewPlan builds a transform plan for length n >= 1. Power-of-two lengths
// return a shared cached plan (safe: such plans are immutable after
// construction); other lengths get a private plan because the Bluestein
// convolution uses plan-owned scratch.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic("dsp: NewPlan length must be positive")
	}
	if n&(n-1) == 0 {
		if cached, ok := pow2Plans.Load(n); ok {
			return cached.(*Plan)
		}
		p := &Plan{n: n, pow2: true}
		p.initPow2()
		shared, _ := pow2Plans.LoadOrStore(n, p)
		return shared.(*Plan)
	}
	p := &Plan{n: n}
	p.initBluestein()
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

func (p *Plan) initPow2() {
	n := p.n
	if n == 1 {
		return
	}
	logN := bits.TrailingZeros(uint(n))
	p.perm = make([]int32, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	p.tw = make([]complex128, n/2)
	p.twInv = make([]complex128, n/2)
	for k := range p.tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		p.tw[k] = cmplx.Exp(complex(0, angle))
		p.twInv[k] = cmplx.Conj(p.tw[k])
	}
}

func (p *Plan) initBluestein() {
	n := p.n
	p.chirp = make([]complex128, n)
	for l := 0; l < n; l++ {
		// l² is taken modulo 2n to keep the argument bounded for large l.
		sq := int64(l) * int64(l) % int64(2*n)
		angle := -math.Pi * float64(sq) / float64(n)
		p.chirp[l] = cmplx.Exp(complex(0, angle))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.sub = NewPlan(m)
	p.scr = make([]complex128, m)

	// Convolution kernels b[l] = conj(chirp[l]) (forward) and chirp[l]
	// (inverse), wrapped cyclically, pre-transformed once.
	p.bFwd = make([]complex128, m)
	p.bInv = make([]complex128, m)
	for l := 0; l < n; l++ {
		p.bFwd[l] = cmplx.Conj(p.chirp[l])
		p.bInv[l] = p.chirp[l]
	}
	for l := 1; l < n; l++ {
		p.bFwd[m-l] = cmplx.Conj(p.chirp[l])
		p.bInv[m-l] = p.chirp[l]
	}
	p.sub.Forward(p.bFwd)
	p.sub.Forward(p.bInv)
}

// Forward computes the in-place DFT of x, which must have length Len().
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place unnormalized inverse DFT of x (the +i
// exponent without the 1/M factor).
func (p *Plan) Inverse(x []complex128) { p.transform(x, true) }

// InverseScaled computes the in-place inverse DFT with the 1/M normalization
// used by the Young–Beaulieu IDFT generator (the same convention as IFFT).
//
// fadinglint:allocfree
func (p *Plan) InverseScaled(x []complex128) {
	p.transform(x, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic("dsp: plan length mismatch")
	}
	if p.n == 1 {
		return
	}
	if p.pow2 {
		p.radix4(x, inverse)
		return
	}
	p.bluestein(x, inverse)
}

// radix4 is an iterative mixed radix-4/radix-2 Cooley–Tukey transform on
// bit-reversal-permuted data with table-driven twiddles. Radix-4 halves the
// number of passes over the array relative to radix-2, which dominates once
// the transform exceeds L1 (a 4096-point block is 64 KiB). With plain
// bit-reversal (rather than base-4 digit reversal) the two middle sub-blocks
// of every group arrive swapped, so the butterfly reads its y1 operand at
// offset 2q and y2 at offset q. An odd power of two takes one trivial
// radix-2 stage first.
func (p *Plan) radix4(x []complex128, inverse bool) {
	n := p.n
	for i, j := range p.perm {
		if int(j) > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := p.tw
	if inverse {
		tw = p.twInv
	}
	size := 1
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Lone radix-2 stage: adjacent pairs, unit twiddle.
		for i := 0; i < n; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		size = 2
	}
	for size < n {
		q := size
		size <<= 2
		stride := n / size
		for start := 0; start < n; start += size {
			// k = 0: all twiddles are 1.
			a := x[start]
			c := x[start+q]
			b := x[start+2*q]
			d := x[start+3*q]
			apc, amc := a+c, a-c
			bpd, bmd := b+d, b-d
			x[start] = apc + bpd
			x[start+2*q] = apc - bpd
			if inverse {
				t := complex(-imag(bmd), real(bmd)) // +i·bmd
				x[start+q] = amc + t
				x[start+3*q] = amc - t
			} else {
				t := complex(imag(bmd), -real(bmd)) // −i·bmd
				x[start+q] = amc + t
				x[start+3*q] = amc - t
			}
			for k := 1; k < q; k++ {
				w1 := tw[k*stride]
				w2 := tw[2*k*stride]
				w3 := w1 * w2
				a := x[start+k]
				c := x[start+q+k] * w2
				b := x[start+2*q+k] * w1
				d := x[start+3*q+k] * w3
				apc, amc := a+c, a-c
				bpd, bmd := b+d, b-d
				x[start+k] = apc + bpd
				x[start+2*q+k] = apc - bpd
				if inverse {
					t := complex(-imag(bmd), real(bmd))
					x[start+q+k] = amc + t
					x[start+3*q+k] = amc - t
				} else {
					t := complex(imag(bmd), -real(bmd))
					x[start+q+k] = amc + t
					x[start+3*q+k] = amc - t
				}
			}
		}
	}
}

// bluestein evaluates the arbitrary-length DFT as a cyclic convolution with
// the pre-transformed kernel, reusing the plan scratch buffer.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	n, m := p.n, p.m
	a := p.scr
	kernel := p.bFwd
	if inverse {
		kernel = p.bInv
	}
	for l := 0; l < n; l++ {
		c := p.chirp[l]
		if inverse {
			c = cmplx.Conj(c)
		}
		a[l] = x[l] * c
	}
	for l := n; l < m; l++ {
		a[l] = 0
	}
	p.sub.Forward(a)
	for i := range a {
		a[i] *= kernel[i]
	}
	p.sub.Inverse(a)
	scale := complex(1/float64(m), 0)
	for l := 0; l < n; l++ {
		c := p.chirp[l]
		if inverse {
			c = cmplx.Conj(c)
		}
		x[l] = a[l] * scale * c
	}
}
