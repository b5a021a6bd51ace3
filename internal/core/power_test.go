package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEnvelopePowerConversionRoundTrip(t *testing.T) {
	for _, sr2 := range []float64{0.1, 1, 2.5, 10} {
		sg2, err := EnvelopePowerToGaussianPower(sr2)
		if err != nil {
			t.Fatalf("EnvelopePowerToGaussianPower(%g): %v", sr2, err)
		}
		back, err := GaussianPowerToEnvelopeVariance(sg2)
		if err != nil {
			t.Fatalf("GaussianPowerToEnvelopeVariance: %v", err)
		}
		if math.Abs(back-sr2) > 1e-12 {
			t.Errorf("round trip %g -> %g -> %g", sr2, sg2, back)
		}
	}
}

func TestEnvelopePowerConversionConstants(t *testing.T) {
	// Eq. (11): σg² = σr²/(1 − π/4); for σr² = 1 this is ≈ 4.6598.
	sg2, err := EnvelopePowerToGaussianPower(1)
	if err != nil {
		t.Fatalf("EnvelopePowerToGaussianPower: %v", err)
	}
	if math.Abs(sg2-1/(1-math.Pi/4)) > 1e-12 {
		t.Errorf("σg² = %g, want %g", sg2, 1/(1-math.Pi/4))
	}
	// Eq. (15): Var{r} = 0.2146·σg².
	v, err := GaussianPowerToEnvelopeVariance(1)
	if err != nil {
		t.Fatalf("GaussianPowerToEnvelopeVariance: %v", err)
	}
	if math.Abs(v-0.21460183660255172) > 1e-12 {
		t.Errorf("envelope variance for unit Gaussian power = %.17g, want 0.2146…", v)
	}
}

func TestExpectedEnvelopeMean(t *testing.T) {
	// Eq. (14): E{r} = 0.8862·σg.
	m, err := ExpectedEnvelopeMean(1)
	if err != nil {
		t.Fatalf("ExpectedEnvelopeMean: %v", err)
	}
	if math.Abs(m-0.8862269254527580) > 1e-12 {
		t.Errorf("E{r} for unit Gaussian power = %.16g, want 0.8862…", m)
	}
	m4, err := ExpectedEnvelopeMean(4)
	if err != nil {
		t.Fatalf("ExpectedEnvelopeMean: %v", err)
	}
	if math.Abs(m4-2*m) > 1e-12 {
		t.Errorf("mean does not scale with σg")
	}
}

func TestPowerConversionErrors(t *testing.T) {
	if _, err := EnvelopePowerToGaussianPower(0); err == nil {
		t.Errorf("zero envelope variance did not error")
	}
	if _, err := EnvelopePowerToGaussianPower(-1); err == nil {
		t.Errorf("negative envelope variance did not error")
	}
	if _, err := GaussianPowerToEnvelopeVariance(0); err == nil {
		t.Errorf("zero Gaussian power did not error")
	}
	if _, err := ExpectedEnvelopeMean(0); err == nil {
		t.Errorf("zero Gaussian power did not error")
	}
	if _, err := EnvelopePowersToGaussianPowers([]float64{1, 0}); err == nil {
		t.Errorf("vector conversion with zero entry did not error")
	}
}

func TestEnvelopePowersToGaussianPowersVector(t *testing.T) {
	in := []float64{1, 2, 0.5}
	out, err := EnvelopePowersToGaussianPowers(in)
	if err != nil {
		t.Fatalf("EnvelopePowersToGaussianPowers: %v", err)
	}
	for i, v := range in {
		want := v / (1 - math.Pi/4)
		if math.Abs(out[i]-want) > 1e-12 {
			t.Errorf("component %d: %g, want %g", i, out[i], want)
		}
	}
}

func TestPropertyPowerConversionMonotone(t *testing.T) {
	f := func(seed int64) bool {
		a := 0.01 + math.Abs(float64(seed%1000))/100
		b := a + 0.5
		ga, err1 := EnvelopePowerToGaussianPower(a)
		gb, err2 := EnvelopePowerToGaussianPower(b)
		return err1 == nil && err2 == nil && gb > ga && ga > a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
