package dsp

import (
	"fmt"
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
// direction meets against the direct DFT. InverseScaled's bound is the same
// divided by n, since its output carries the 1/n factor. log₂n is taken as
// at least 1, since log₂1 = 0.
const planErrBound = 8

// planError applies one Plan direction to a copy of x and returns its
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

// TestPlanMatchesDirectDFT checks every Plan direction against the direct
// DFT at Bluestein lengths (3, 12, 100, 1000, 1021 prime, 4095) and two
// powers of two, under planErrBound (c = 8). Over these lengths and seeds
// the largest observed error was 2.32·ε·log₂n·‖x‖₂ (Bluestein, Forward at
// n = 3; 1.99 at n = 100, at most 1.21 from n = 1000 up) and
// 0.66·ε·log₂n·‖x‖₂ (radix-4).
func TestPlanMatchesDirectDFT(t *testing.T) {
	worst := map[bool]float64{} // by power-of-two length
	for _, n := range []int{3, 12, 100, 1000, 1021, 4095, 64, 4096} {
		for seed := int64(0); seed < 2; seed++ {
			rng := rand.New(rand.NewSource(int64(n)*10 + seed))
			x := randomComplexSlice(rng, n)
			p := NewPlan(n)
			fwd, inv := directDFT(x, false), directDFT(x, true)
			for _, tc := range []struct {
				name  string
				apply func([]complex128)
				want  []complex128
				scale float64
			}{
				{"Forward", p.Forward, fwd, 1},
				{"Inverse", p.Inverse, inv, 1},
				{"InverseScaled", p.InverseScaled, inv, 1 / float64(n)},
			} {
				maxErr, ratio := planError(x, tc.apply, tc.want, tc.scale)
				pow2 := n&(n-1) == 0
				worst[pow2] = math.Max(worst[pow2], ratio)
				if ratio > planErrBound {
					t.Errorf("%s n=%d seed %d: max error %.3g = %.2f·ε·log₂n·‖x‖ (bound %d)",
						tc.name, n, seed, maxErr, ratio, planErrBound)
				}
			}
		}
	}
	t.Logf("largest error: Bluestein %s, radix-4 %s (·ε·log₂n·‖x‖₂)",
		fmt.Sprintf("%.3f", worst[false]), fmt.Sprintf("%.3f", worst[true]))
}

func cmplxAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
