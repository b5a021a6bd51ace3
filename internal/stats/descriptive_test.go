package stats

import (
	"math"
	"testing"
)

func TestMeanVarianceKnown(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	m, err := Mean(x)
	if err != nil || m != 3 {
		t.Errorf("Mean = %g, %v; want 3", m, err)
	}
	v, err := Variance(x)
	if err != nil || math.Abs(v-2) > 1e-12 {
		t.Errorf("Variance = %g, %v; want 2", v, err)
	}
	ms, err := MeanSquare(x)
	if err != nil || math.Abs(ms-11) > 1e-12 {
		t.Errorf("MeanSquare = %g, %v; want 11", ms, err)
	}
	r, err := RMS(x)
	if err != nil || math.Abs(r-math.Sqrt(11)) > 1e-12 {
		t.Errorf("RMS = %g, %v; want sqrt(11)", r, err)
	}
}

func TestEmptySampleErrors(t *testing.T) {
	if _, err := Mean(nil); err == nil {
		t.Errorf("Mean(nil) did not error")
	}
	if _, err := Variance(nil); err == nil {
		t.Errorf("Variance(nil) did not error")
	}
	if _, err := MeanSquare(nil); err == nil {
		t.Errorf("MeanSquare(nil) did not error")
	}
}
