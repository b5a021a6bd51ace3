package stats

import (
	"math"
	"testing"

	"repro/internal/randx"
)

func TestLaggedAutocorrelationWhiteNoise(t *testing.T) {
	rng := randx.New(1)
	x := rng.ComplexNormalVector(100000, 1)
	rho, err := LaggedAutocorrelation(x, 5)
	if err != nil {
		t.Fatalf("LaggedAutocorrelation: %v", err)
	}
	if math.Abs(rho[0]-1) > 1e-12 {
		t.Errorf("rho[0] = %g, want 1", rho[0])
	}
	for d := 1; d <= 5; d++ {
		if math.Abs(rho[d]) > 0.02 {
			t.Errorf("white noise autocorrelation at lag %d = %g", d, rho[d])
		}
	}
}

func TestLaggedAutocorrelationErrors(t *testing.T) {
	if _, err := LaggedAutocorrelation(nil, 0); err == nil {
		t.Errorf("empty series did not error")
	}
	if _, err := LaggedAutocorrelation(make([]complex128, 4), 4); err == nil {
		t.Errorf("maxLag >= length did not error")
	}
	if _, err := LaggedAutocorrelation(make([]complex128, 4), 2); err == nil {
		t.Errorf("zero-power series did not error")
	}
}

func TestEnvelopeDB(t *testing.T) {
	env := []float64{1, 2, 4}
	db, err := EnvelopeDB(env)
	if err != nil {
		t.Fatalf("EnvelopeDB: %v", err)
	}
	rms := math.Sqrt((1 + 4 + 16) / 3.0)
	for i, v := range env {
		want := 20 * math.Log10(v/rms)
		if math.Abs(db[i]-want) > 1e-12 {
			t.Errorf("dB[%d] = %g, want %g", i, db[i], want)
		}
	}
	// Zero samples map to the floor value rather than -Inf.
	db, err = EnvelopeDB([]float64{0, 1})
	if err != nil {
		t.Fatalf("EnvelopeDB: %v", err)
	}
	if !(db[0] <= -250) {
		t.Errorf("zero envelope sample mapped to %g, want large negative floor", db[0])
	}
	if _, err := EnvelopeDB(nil); err == nil {
		t.Errorf("empty envelope did not error")
	}
	if _, err := EnvelopeDB([]float64{0, 0}); err == nil {
		t.Errorf("all-zero envelope did not error")
	}
}
