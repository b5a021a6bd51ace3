//go:build !race

package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits reports the first index at which got and want differ in any bit,
// or -1.
func sameBits(got, want []complex128) int {
	for i := range got {
		if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
			math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
			return i
		}
	}
	return -1
}

// TestStageKernelsMatchGoLoops holds the SSE2 stage kernel to the Go loop
// it replaces on amd64, bit for bit, stage by stage on the data a transform
// hands them. At every power of two from 2 to 2^16 and every half-width b
// TestInverseBitReversedBandMatchesDense uses, a spectrum non-zero only at
// bins k ≤ b and k ≥ n−b, some of its taps exactly ±0, goes through the
// passes of InverseBitReversed(x, n) (the dense first pass InverseScaled
// runs) and of InverseBitReversed(x, b) (banded first pass). Before each
// stage, the q = 4 stage included, the data is copied; stageKernel runs on
// one copy, stageGo on the other, and the two must agree in every bit.
func TestStageKernelsMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	negZero := math.Copysign(0, -1)
	zeros := [4]complex128{0, complex(negZero, 0), complex(0, negZero), complex(negZero, negZero)}
	for n := 2; n <= 1<<16; n <<= 1 {
		p := NewPlan(n)
		for _, b := range []int{0, 1, 2, 3, n / 50, n / 20, n/8 - 1, n / 8, n/4 - 1, n / 4, n/2 - 1, n / 2} {
			if b < 0 {
				continue
			}
			spec := make([]complex128, n)
			for k := range spec {
				if k > b && k < n-b {
					continue
				}
				if rng.Intn(6) == 0 {
					spec[k] = zeros[rng.Intn(len(zeros))]
				} else {
					spec[k] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
			}
			for _, halfWidth := range []int{n, b} {
				x := make([]complex128, n)
				for k, v := range spec {
					x[p.BitReversed(k)] = v
				}
				if p.radix2 {
					p.firstRadix2(x, halfWidth)
				} else {
					p.firstRadix4(x, halfWidth)
				}
				for _, tw := range p.stages {
					want := append([]complex128(nil), x...)
					stageGo(want, tw)
					stageKernel(x, tw)
					if l := sameBits(x, want); l >= 0 {
						t.Fatalf("n=%d band %d, half-width %d: stageKernel (q = %d) sample %d = %v, Go loop %v",
							n, b, halfWidth, len(tw), l, x[l], want[l])
					}
				}
			}
		}
	}
}

// TestEnvelopeKernelMatchesGoLoop holds the SSE2 envelope kernel to
// envelopeGo's math.Sqrt(re*re + im*im), bit for bit, at lengths 0 to 9,
// 4095 and 4096, so every sample position of the four-sample passes and of
// the scalar tail is covered. The components cycle through ±0, ± the
// smallest subnormal, ±1e200 (whose square overflows to +Inf), ±Inf and
// ordinary values, each reaching every position at some offset.
func TestEnvelopeKernelMatchesGoLoop(t *testing.T) {
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	vals := []float64{0, negZero, tiny, -tiny, 1e200, -1e200, math.Inf(1), math.Inf(-1),
		1, -0.75, 3.5e-3, -1234.5678, 0.1, -2.2250738585072014e-308}
	rng := rand.New(rand.NewSource(137))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4095, 4096} {
		for s := range vals {
			z := make([]complex128, n)
			for l := range z {
				re, im := vals[(s+l)%len(vals)], vals[(s+3*l+1)%len(vals)]
				if n > 9 && rng.Intn(2) == 0 {
					re, im = rng.NormFloat64(), rng.NormFloat64()
				}
				z[l] = complex(re, im)
			}
			got, want := make([]float64, n), make([]float64, n)
			envelopeKernel(got, z)
			envelopeGo(want, z)
			for l, v := range z {
				if math.Float64bits(got[l]) != math.Float64bits(want[l]) {
					t.Fatalf("n=%d offset %d sample %d: |%v| = %v, Go loop %v", n, s, l, v, got[l], want[l])
				}
			}
		}
	}
}
