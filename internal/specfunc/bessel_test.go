package specfunc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBesselJ0KnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 1},
		{1, 0.7651976865579666},
		{2, 0.2238907791412357},
		{2.404825557695773, 0}, // first zero of J0
		{5, -0.17759677131433830},
		{10, -0.2459357644513483},
		{2 * math.Pi, 0.220276908539934}, // appears in the spatial covariance Eq. (23)
		{0.31415926535897931, 0.975477774075249},
	}
	for _, c := range cases {
		if got := BesselJ0(c.x); math.Abs(got-c.want) > 1e-10 {
			t.Errorf("BesselJ0(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
}

func TestBesselJ1KnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0},
		{1, 0.4400505857449335},
		{2, 0.5767248077568734},
		{5, -0.3275791375914652},
		{10, 0.04347274616886144},
	}
	for _, c := range cases {
		if got := BesselJ1(c.x); math.Abs(got-c.want) > 1e-10 {
			t.Errorf("BesselJ1(%g) = %.15g, want %.15g", c.x, got, c.want)
		}
	}
	// Odd symmetry.
	if got := BesselJ1(-3); math.Abs(got+BesselJ1(3)) > 1e-14 {
		t.Errorf("BesselJ1 is not odd: J1(-3)=%g, J1(3)=%g", got, BesselJ1(3))
	}
}

func TestBesselJ0EvenSymmetry(t *testing.T) {
	for _, x := range []float64{0.1, 1.7, 6.3, 20} {
		if d := BesselJ0(-x) - BesselJ0(x); math.Abs(d) > 1e-14 {
			t.Errorf("BesselJ0 not even at x=%g: diff %g", x, d)
		}
	}
}

func TestBesselAgainstStdlib(t *testing.T) {
	// Cross-validate the independent implementation against math.J0/J1/Jn on
	// a dense grid covering series, crossover and asymptotic regimes.
	for x := 0.0; x <= 60; x += 0.173 {
		if d := math.Abs(BesselJ0(x) - math.J0(x)); d > 2e-10 {
			t.Errorf("BesselJ0(%g) differs from math.J0 by %g", x, d)
		}
		if d := math.Abs(BesselJ1(x) - math.J1(x)); d > 2e-10 {
			t.Errorf("BesselJ1(%g) differs from math.J1 by %g", x, d)
		}
	}
	for n := 2; n <= 40; n++ {
		for _, x := range []float64{0.05, 0.5, 1, 2, 3.5, 6.2832, 12, 25, 50} {
			want := math.Jn(n, x)
			got := BesselJn(n, x)
			tol := 1e-10 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol && math.Abs(got-want) > 1e-13 {
				t.Errorf("BesselJn(%d,%g) = %.15g, want %.15g", n, x, got, want)
			}
		}
	}
}

func TestBesselJnNegativeOrderAndArgument(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, x := range []float64{0.7, 3.1, 9.4} {
			want := BesselJn(n, x)
			if n%2 != 0 {
				want = -want
			}
			if got := BesselJn(-n, x); math.Abs(got-want) > 1e-12 {
				t.Errorf("BesselJn(%d,%g) = %g, want %g", -n, x, got, want)
			}
			wantNegArg := BesselJn(n, x)
			if n%2 != 0 {
				wantNegArg = -wantNegArg
			}
			if got := BesselJn(n, -x); math.Abs(got-wantNegArg) > 1e-12 {
				t.Errorf("BesselJn(%d,%g) = %g, want %g", n, -x, got, wantNegArg)
			}
		}
	}
}

func TestBesselJnAtZero(t *testing.T) {
	if got := BesselJn(0, 0); got != 1 {
		t.Errorf("J0(0) = %g, want 1", got)
	}
	for n := 1; n < 6; n++ {
		if got := BesselJn(n, 0); got != 0 {
			t.Errorf("J%d(0) = %g, want 0", n, got)
		}
	}
}

func TestBesselRecurrenceProperty(t *testing.T) {
	// J_{n-1}(x) + J_{n+1}(x) = (2n/x)·J_n(x)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := 0.1 + 30*rng.Float64()
		lhs := BesselJn(n-1, x) + BesselJn(n+1, x)
		rhs := 2 * float64(n) / x * BesselJn(n, x)
		return math.Abs(lhs-rhs) < 1e-9*math.Max(1, math.Abs(rhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBesselSumOfSquaresProperty(t *testing.T) {
	// J0(x)² + 2·Σ_{k>=1} Jk(x)² = 1 for all real x.
	for _, x := range []float64{0.3, 1, 2.5, 7, 13, 22} {
		sum := BesselJ0(x) * BesselJ0(x)
		for k := 1; k <= 80; k++ {
			v := BesselJn(k, x)
			sum += 2 * v * v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("sum-of-squares identity at x=%g: %g", x, sum)
		}
	}
}
