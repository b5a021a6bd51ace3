package stats

import (
	"math"
	"testing"

	"repro/internal/randx"
)

func TestChiSquareAcceptsRayleighSample(t *testing.T) {
	rng := randx.New(1)
	const sigma = 1.2
	x := rayleighVector(rng, 50000, sigma)
	res, err := ChiSquareRayleigh(x, RayleighDist{Sigma: sigma}, 20, 0)
	if err != nil {
		t.Fatalf("ChiSquareRayleigh: %v", err)
	}
	if res.DegreesOfFreedom != 19 {
		t.Errorf("DegreesOfFreedom = %d, want 19", res.DegreesOfFreedom)
	}
	if res.PValue < 0.01 {
		t.Errorf("chi-square rejects a true Rayleigh sample: stat=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestChiSquareRejectsNonRayleighSample(t *testing.T) {
	rng := randx.New(2)
	x := make([]float64, 50000)
	for i := range x {
		x[i] = rng.Float64() * 3 // uniform, clearly not Rayleigh
	}
	res, err := ChiSquareRayleigh(x, RayleighDist{Sigma: 1}, 20, 0)
	if err != nil {
		t.Fatalf("ChiSquareRayleigh: %v", err)
	}
	if res.PValue > 1e-6 {
		t.Errorf("chi-square failed to reject a uniform sample: stat=%g p=%g", res.Statistic, res.PValue)
	}
}

func TestChiSquareWithFittedScale(t *testing.T) {
	rng := randx.New(3)
	x := rayleighVector(rng, 30000, 0.7)
	d, err := FitRayleigh(x)
	if err != nil {
		t.Fatalf("FitRayleigh: %v", err)
	}
	res, err := ChiSquareRayleigh(x, d, 15, 1)
	if err != nil {
		t.Fatalf("ChiSquareRayleigh: %v", err)
	}
	if res.DegreesOfFreedom != 13 {
		t.Errorf("DegreesOfFreedom = %d, want 13", res.DegreesOfFreedom)
	}
	if res.PValue < 0.01 {
		t.Errorf("chi-square with fitted scale rejects its own sample: p=%g", res.PValue)
	}
}

func TestChiSquareErrors(t *testing.T) {
	d := RayleighDist{Sigma: 1}
	if _, err := ChiSquareRayleigh(nil, d, 10, 0); err == nil {
		t.Errorf("empty sample did not error")
	}
	if _, err := ChiSquareRayleigh(make([]float64, 100), d, 1, 0); err == nil {
		t.Errorf("single bin did not error")
	}
	if _, err := ChiSquareRayleigh(make([]float64, 100), d, 2, 1); err == nil {
		t.Errorf("non-positive degrees of freedom did not error")
	}
	if _, err := ChiSquareRayleigh(make([]float64, 10), d, 10, 0); err == nil {
		t.Errorf("too few samples per bin did not error")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Chi-square with 2 degrees of freedom is exponential with mean 2:
	// P(X > x) = exp(−x/2).
	for _, x := range []float64{0.5, 1, 2, 5, 10} {
		got := chiSquareSurvival(x, 2)
		want := math.Exp(-x / 2)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("chiSquareSurvival(%g, 2) = %g, want %g", x, got, want)
		}
	}
	// With 1 degree of freedom: P(X > x) = 2·(1 − Φ(sqrt(x))) = erfc(sqrt(x/2)).
	for _, x := range []float64{0.5, 1, 4, 9} {
		got := chiSquareSurvival(x, 1)
		want := math.Erfc(math.Sqrt(x / 2))
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("chiSquareSurvival(%g, 1) = %g, want %g", x, got, want)
		}
	}
	if chiSquareSurvival(0, 3) != 1 {
		t.Errorf("survival at 0 should be 1")
	}
	if !math.IsNaN(regularizedGammaQ(-1, 1)) || !math.IsNaN(regularizedGammaQ(1, -1)) {
		t.Errorf("invalid gamma arguments should return NaN")
	}
	if regularizedGammaQ(2, 0) != 1 {
		t.Errorf("Q(a, 0) should be 1")
	}
}
