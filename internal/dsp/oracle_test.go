package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// directDFT is the O(n²) oracle: X[k] = Σ_l x[l]·exp(∓2πi·(k·l mod n)/n).
// The angle index k·l is reduced modulo n in exact integer arithmetic and
// looks up a table of the n twiddles, each from math.Sincos of its own
// reduced angle, and each sum is accumulated with Neumaier compensation, so
// the oracle's own error stays near ε·‖x‖₂ (twiddle and product rounding)
// instead of growing with n.
func directDFT(x []complex128, inverse bool) []complex128 {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1
	}
	tw := make([]complex128, n)
	for j := range tw {
		s, c := math.Sincos(sign * 2 * math.Pi * float64(j) / float64(n))
		tw[j] = complex(c, s)
	}
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var re, im neumaier
		j := 0 // k·l mod n
		for _, v := range x {
			w := tw[j]
			re.add(real(v) * real(w))
			re.add(-imag(v) * imag(w))
			im.add(real(v) * imag(w))
			im.add(imag(v) * real(w))
			if j += k; j >= n {
				j -= n
			}
		}
		out[k] = complex(re.sum(), im.sum())
	}
	return out
}

// neumaier is Kahan–Babuška compensated summation.
type neumaier struct{ s, c float64 }

func (a *neumaier) add(v float64) {
	t := a.s + v
	if math.Abs(a.s) >= math.Abs(v) {
		a.c += (a.s - t) + v
	} else {
		a.c += (v - t) + a.s
	}
	a.s = t
}

func (a *neumaier) sum() float64 { return a.s + a.c }

// planErrBound is c in the error bound c·ε·log₂n·‖x‖₂ that every Plan
// transform meets against the direct DFT. InverseScaled's bound is the same
// divided by n, since its output carries the 1/n factor. log₂n is taken as
// at least 1, since log₂1 = 0.
const planErrBound = 8

// planError applies one Plan transform to a copy of x and returns its
// largest deviation from want·scale, both absolute and in units of
// ε·log₂n·‖x‖₂·scale.
func planError(x []complex128, apply func([]complex128), want []complex128, scale float64) (maxErr, ratio float64) {
	var norm float64
	for _, v := range x {
		norm += real(v)*real(v) + imag(v)*imag(v)
	}
	eps := math.Nextafter(1, 2) - 1
	unit := eps * math.Max(1, math.Log2(float64(len(x)))) * math.Sqrt(norm)
	got := append([]complex128(nil), x...)
	apply(got)
	for k := range got {
		maxErr = math.Max(maxErr, cmplxAbs(got[k]-want[k]*complex(scale, 0)))
	}
	return maxErr, maxErr / (unit * scale)
}

// TestPlanMatchesDirectDFT checks both Plan transforms against the direct
// inverse DFT at n = 64 and 4096, under planErrBound (c = 8):
// InverseScaled, and InverseBitReversed of the bit-reversed input with a
// half-width that admits every bin. Over these lengths and seeds the
// largest observed error was 0.60·ε·log₂n·‖x‖₂.
func TestPlanMatchesDirectDFT(t *testing.T) {
	worst := 0.0
	for _, n := range []int{64, 4096} {
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(int64(n)*10 + seed))
			x := randomComplexSlice(rng, n)
			p := NewPlan(n)
			inv := directDFT(x, true)
			bitReversed := func(y []complex128) {
				br := make([]complex128, n)
				for k, v := range y {
					br[p.BitReversed(k)] = v
				}
				p.InverseBitReversed(br, n)
				copy(y, br)
			}
			for _, tc := range []struct {
				name  string
				apply func([]complex128)
				scale float64
			}{
				{"InverseScaled", p.InverseScaled, 1 / float64(n)},
				{"InverseBitReversed", bitReversed, 1},
			} {
				maxErr, ratio := planError(x, tc.apply, inv, tc.scale)
				worst = math.Max(worst, ratio)
				if ratio > planErrBound {
					t.Errorf("%s n=%d seed %d: max error %.3g = %.2f·ε·log₂n·‖x‖ (bound %d)",
						tc.name, n, seed, maxErr, ratio, planErrBound)
				}
			}
		}
	}
	t.Logf("largest error: %.3f·ε·log₂n·‖x‖₂", worst)
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
