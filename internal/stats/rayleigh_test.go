package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/randx"
)

func TestRayleighPDFCDFConsistency(t *testing.T) {
	d := RayleighDist{Sigma: 1.3}
	// CDF'(x) ≈ PDF(x) by finite differences.
	for _, x := range []float64{0.2, 0.7, 1.5, 3.0} {
		h := 1e-6
		deriv := (d.CDF(x+h) - d.CDF(x-h)) / (2 * h)
		if math.Abs(deriv-d.PDF(x)) > 1e-5 {
			t.Errorf("dCDF/dx at %g = %g, PDF = %g", x, deriv, d.PDF(x))
		}
	}
	if d.PDF(-1) != 0 || d.CDF(-1) != 0 {
		t.Errorf("negative support should have zero density and CDF")
	}
	if d.CDF(0) != 0 {
		t.Errorf("CDF(0) = %g, want 0", d.CDF(0))
	}
	if got := d.CDF(1e9); math.Abs(got-1) > 1e-12 {
		t.Errorf("CDF(large) = %g, want 1", got)
	}
}

func TestRayleighQuantileInvertsCDF(t *testing.T) {
	d := RayleighDist{Sigma: 0.8}
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
		q, err := d.Quantile(p)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", p, err)
		}
		if math.Abs(d.CDF(q)-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%g)) = %g", p, d.CDF(q))
		}
	}
	if _, err := d.Quantile(1); err == nil {
		t.Errorf("Quantile(1) did not error")
	}
	if _, err := d.Quantile(-0.1); err == nil {
		t.Errorf("Quantile(-0.1) did not error")
	}
}

func TestRayleighMomentsMatchPaperConstants(t *testing.T) {
	// For a complex Gaussian of power σg², the envelope statistics of
	// Eq. (14)–(15): mean 0.8862·σg and variance 0.2146·σg².
	const gaussianPower = 2.7
	d, err := NewRayleighFromGaussianPower(gaussianPower)
	if err != nil {
		t.Fatalf("NewRayleighFromGaussianPower: %v", err)
	}
	sigmaG := math.Sqrt(gaussianPower)
	if got, want := d.Mean(), 0.8862269254527580*sigmaG; math.Abs(got-want) > 1e-10 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
	if got, want := d.Variance(), (1-math.Pi/4)*gaussianPower; math.Abs(got-want) > 1e-10 {
		t.Errorf("Variance = %g, want %g (0.2146·σg²)", got, want)
	}
	if got := d.MeanSquare(); math.Abs(got-gaussianPower) > 1e-10 {
		t.Errorf("MeanSquare = %g, want σg² = %g", got, gaussianPower)
	}
	if _, err := NewRayleighFromGaussianPower(0); err == nil {
		t.Errorf("zero Gaussian power did not error")
	}
}

func TestFitRayleighRecoversScale(t *testing.T) {
	rng := randx.New(7)
	const sigma = 1.7
	x := rayleighVector(rng, 200000, sigma)
	d, err := FitRayleigh(x)
	if err != nil {
		t.Fatalf("FitRayleigh: %v", err)
	}
	if math.Abs(d.Sigma-sigma) > 0.01*sigma {
		t.Errorf("fitted sigma = %g, want %g", d.Sigma, sigma)
	}
	if _, err := FitRayleigh(nil); err == nil {
		t.Errorf("FitRayleigh(nil) did not error")
	}
	if _, err := FitRayleigh([]float64{1, -2}); err == nil {
		t.Errorf("FitRayleigh with negative values did not error")
	}
}

func TestKSTestAcceptsRayleighSample(t *testing.T) {
	// Seed chosen for an unremarkable KS draw: under H0 the p-value is
	// uniform, so some seeds land below any fixed acceptance threshold.
	rng := randx.New(12)
	const sigma = 0.9
	x := rayleighVector(rng, 20000, sigma)
	stat, p, err := KolmogorovSmirnovRayleigh(x, RayleighDist{Sigma: sigma})
	if err != nil {
		t.Fatalf("KS: %v", err)
	}
	if stat > 0.02 {
		t.Errorf("KS statistic %g too large for a true Rayleigh sample", stat)
	}
	if p < 0.01 {
		t.Errorf("KS p-value %g rejects a true Rayleigh sample", p)
	}
}

func TestKSTestRejectsWrongDistribution(t *testing.T) {
	rng := randx.New(9)
	// Uniform sample tested against a Rayleigh law must be firmly rejected.
	x := make([]float64, 20000)
	for i := range x {
		x[i] = rng.Float64()
	}
	stat, p, err := KolmogorovSmirnovRayleigh(x, RayleighDist{Sigma: 1})
	if err != nil {
		t.Fatalf("KS: %v", err)
	}
	if stat < 0.1 {
		t.Errorf("KS statistic %g too small for a non-Rayleigh sample", stat)
	}
	if p > 1e-6 {
		t.Errorf("KS p-value %g fails to reject a non-Rayleigh sample", p)
	}
}

func TestKSTestErrors(t *testing.T) {
	if _, _, err := KolmogorovSmirnovRayleigh(nil, RayleighDist{Sigma: 1}); err == nil {
		t.Errorf("KS on empty sample did not error")
	}
}

func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		d := RayleighDist{Sigma: 0.1 + 3*rng.Float64()}
		p1 := rng.Float64() * 0.98
		p2 := p1 + (0.99-p1)*rng.Float64()
		q1, err1 := d.Quantile(p1)
		q2, err2 := d.Quantile(p2)
		return err1 == nil && err2 == nil && q2 >= q1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyFitRayleighMatchesMoment(t *testing.T) {
	// The ML fit equals the mean-square moment estimator exactly.
	f := func(seed int64) bool {
		rng := randx.New(seed)
		n := 10 + rng.Intn(500)
		sigma := 0.2 + 2*rng.Float64()
		x := rayleighVector(rng, n, sigma)
		d, err := FitRayleigh(x)
		if err != nil {
			return false
		}
		ms, err := MeanSquare(x)
		if err != nil {
			return false
		}
		return math.Abs(d.Sigma-math.Sqrt(ms/2)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// rayleighVector returns n independent Rayleigh samples with scale sigma.
func rayleighVector(rng *randx.RNG, n int, sigma float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Rayleigh(sigma)
	}
	return out
}
