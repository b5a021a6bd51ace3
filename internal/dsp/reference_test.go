package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"runtime"
	"testing"
)

// referenceRadix4 is the power-of-two inverse transform the stage-table
// kernel replaced: one length-n twiddle table read at stride n/size and
// w3 = w1·w2 formed in every butterfly. It permutes x into bit-reversed
// order first, as InverseScaled does, and leaves out the 1/n factor.
func referenceRadix4(x []complex128) {
	n := len(x)
	logN := bits.TrailingZeros(uint(n))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = cmplx.Conj(cmplx.Exp(complex(0, angle)))
	}
	size := 1
	if logN&1 == 1 {
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
			a := x[start]
			c := x[start+q]
			b := x[start+2*q]
			d := x[start+3*q]
			apc, amc := a+c, a-c
			bpd, bmd := b+d, b-d
			t := complex(-imag(bmd), real(bmd)) // +i·bmd
			x[start] = apc + bpd
			x[start+q] = amc + t
			x[start+2*q] = apc - bpd
			x[start+3*q] = amc - t
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
				t := complex(-imag(bmd), real(bmd))
				x[start+k] = apc + bpd
				x[start+q+k] = amc + t
				x[start+2*q+k] = apc - bpd
				x[start+3*q+k] = amc - t
			}
		}
	}
}

// TestPlanMatchesReferenceRadix4 requires both Plan transforms, from n = 2
// to 2^16, to reproduce referenceRadix4 bit for bit on amd64: the stage
// tables hold the products the reference formed, and each butterfly sees
// the same operands in the same order. InverseScaled's output is compared
// with the reference's times the same 1/n factor. Other architectures may
// fuse multiply-adds differently in the two kernels, so there the plan only
// has to stay within planErrBound of the reference.
func TestPlanMatchesReferenceRadix4(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for n := 2; n <= 1<<16; n <<= 1 {
		p := NewPlan(n)
		x := randomComplexSlice(rng, n)
		ref := append([]complex128(nil), x...)
		referenceRadix4(ref)
		inv := complex(1/float64(n), 0)
		for _, tc := range []struct {
			name  string
			scale float64
			apply func([]complex128)
		}{
			{"InverseScaled", 1 / float64(n), p.InverseScaled},
			{"InverseBitReversed", 1, func(y []complex128) {
				br := make([]complex128, n)
				for k, v := range y {
					br[p.BitReversed(k)] = v
				}
				p.InverseBitReversed(br, n/2)
				copy(y, br)
			}},
		} {
			if runtime.GOARCH != "amd64" {
				if maxErr, ratio := planError(x, tc.apply, ref, tc.scale); ratio > planErrBound {
					t.Errorf("%s n=%d: deviates from the reference by %.3g = %.2f·ε·log₂n·‖x‖ (bound %d)",
						tc.name, n, maxErr, ratio, planErrBound)
				}
				continue
			}
			want := append([]complex128(nil), ref...)
			if tc.scale != 1 {
				for i := range want {
					want[i] *= inv
				}
			}
			got := append([]complex128(nil), x...)
			tc.apply(got)
			for k := range got {
				if math.Float64bits(real(got[k])) != math.Float64bits(real(want[k])) ||
					math.Float64bits(imag(got[k])) != math.Float64bits(imag(want[k])) {
					t.Fatalf("%s n=%d bin %d: plan %v, reference %v", tc.name, n, k, got[k], want[k])
				}
			}
		}
	}
}
