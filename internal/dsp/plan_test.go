package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomComplexSlice(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxAbsDiff(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestPlanForwardMatchesFFT checks Len and Forward at the powers of two 1
// to 1024 and the Bluestein lengths 3, 5, 12, 100 and 257 (prime). The FFT
// Forward must match is the DFT itself, evaluated by the directDFT oracle
// under planErrBound.
func TestPlanForwardMatchesFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for _, n := range []int{1, 2, 4, 8, 64, 1024, 3, 5, 12, 100, 257} {
		p := NewPlan(n)
		if p.Len() != n {
			t.Fatalf("Len = %d, want %d", p.Len(), n)
		}
		x := randomComplexSlice(rng, n)
		if maxErr, ratio := planError(x, p.Forward, directDFT(x, false), 1); ratio > planErrBound {
			t.Errorf("n=%d: plan forward deviates from the DFT by %.3g = %.2f·ε·log₂n·‖x‖ (bound %d)",
				n, maxErr, ratio, planErrBound)
		}
	}
}

// TestPlanInverseScaledMatchesIFFT checks InverseScaled, the 1/n-normalized
// inverse every generated block goes through, at the powers of two 2 to 4096
// and the Bluestein lengths 6, 30 and 243, against the direct inverse DFT
// under planErrBound.
func TestPlanInverseScaledMatchesIFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for _, n := range []int{2, 16, 512, 4096, 6, 30, 243} {
		p := NewPlan(n)
		x := randomComplexSlice(rng, n)
		if maxErr, ratio := planError(x, p.InverseScaled, directDFT(x, true), 1/float64(n)); ratio > planErrBound {
			t.Errorf("n=%d: plan inverse deviates from the inverse DFT by %.3g = %.2f·ε·log₂n·‖x‖/n (bound %d)",
				n, maxErr, ratio, planErrBound)
		}
	}
}

func TestPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for _, n := range []int{8, 128, 7, 60} {
		p := NewPlan(n)
		x := randomComplexSlice(rng, n)
		got := append([]complex128(nil), x...)
		p.Forward(got)
		p.InverseScaled(got)
		if d := maxAbsDiff(got, x); d > 1e-9 {
			t.Errorf("n=%d: forward+inverse round trip error %g", n, d)
		}
	}
}

func TestPlanReuseIsStable(t *testing.T) {
	// Repeated transforms through one plan must give identical results:
	// cached state must not be corrupted by use.
	rng := rand.New(rand.NewSource(109))
	for _, n := range []int{64, 12} {
		p := NewPlan(n)
		x := randomComplexSlice(rng, n)
		first := append([]complex128(nil), x...)
		p.Forward(first)
		for rep := 0; rep < 3; rep++ {
			again := append([]complex128(nil), x...)
			p.Forward(again)
			for i := range again {
				if again[i] != first[i] {
					t.Fatalf("n=%d rep %d: transform not reproducible at %d", n, rep, i)
				}
			}
		}
	}
}

func TestPlanPow2TransformDoesNotAllocate(t *testing.T) {
	p := NewPlan(4096)
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%7), float64(i%5))
	}
	if n := testing.AllocsPerRun(20, func() {
		p.InverseScaled(x)
	}); n != 0 {
		t.Errorf("power-of-two InverseScaled allocates %v per run", n)
	}
}

func TestPlanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("length mismatch did not panic")
		}
	}()
	NewPlan(8).Forward(make([]complex128, 4))
}

// TestInverseBitReversedBandMatchesDense requires the banded first pass to
// reproduce the dense transform bit for bit. At every power of two from 2
// to 2^16 and a spread of half-widths b, a spectrum that is non-zero only
// at bins k ≤ b and k ≥ n−b, with some of those taps exactly ±0, goes
// through InverseBitReversed(x, b) and through Inverse, whose first pass
// visits every group. A skipped group holds four (or two) +0 values, and
// the pass that skips it only adds and subtracts, so the two agree on every
// architecture.
func TestInverseBitReversedBandMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
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
			want := append([]complex128(nil), spec...)
			p.Inverse(want)
			got := make([]complex128, n)
			for k, v := range spec {
				got[p.BitReversed(k)] = v
			}
			p.InverseBitReversed(got, b)
			for l := range got {
				if math.Float64bits(real(got[l])) != math.Float64bits(real(want[l])) ||
					math.Float64bits(imag(got[l])) != math.Float64bits(imag(want[l])) {
					t.Fatalf("n=%d half-width %d sample %d: banded %v, dense %v", n, b, l, got[l], want[l])
				}
			}
		}
	}
}

func TestInverseBitReversedPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"length mismatch":     func() { NewPlan(8).InverseBitReversed(make([]complex128, 4), 4) },
		"non-power-of-two n":  func() { NewPlan(12).InverseBitReversed(make([]complex128, 12), 6) },
		"negative half-width": func() { NewPlan(8).InverseBitReversed(make([]complex128, 8), -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			call()
		}()
	}
}

// TestEnvelope checks Envelope against |z| on every architecture, that it
// allocates nothing, and that rows of different lengths panic.
func TestEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	z := randomComplexSlice(rng, 4096)
	r := make([]float64, len(z))
	Envelope(r, z)
	for l, v := range z {
		if want := cmplx.Abs(v); math.Abs(r[l]-want) > 1e-15*want {
			t.Fatalf("sample %d: Envelope %v, |z| = %v", l, r[l], want)
		}
	}
	if n := testing.AllocsPerRun(20, func() { Envelope(r, z) }); n != 0 {
		t.Errorf("Envelope allocates %v per run", n)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("length mismatch did not panic")
		}
	}()
	Envelope(r[:len(r)-1], z)
}

func BenchmarkPlanInverse4096(b *testing.B) {
	p := NewPlan(4096)
	x := make([]complex128, 4096)
	for i := range x {
		x[i] = complex(float64(i%11), -float64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.InverseScaled(x)
	}
}

// BenchmarkEnvelope times the envelope pass of one 4096-sample block row.
func BenchmarkEnvelope(b *testing.B) {
	z := randomComplexSlice(rand.New(rand.NewSource(149)), 4096)
	r := make([]float64, len(z))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Envelope(r, z)
	}
}
