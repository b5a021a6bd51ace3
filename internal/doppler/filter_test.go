package doppler

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// paperSpec is the exact Section 6 configuration: M = 4096 IDFT points and
// fm = Fm/Fs = 50/1000 = 0.05, which the paper notes gives km = 204.
func paperSpec() FilterSpec {
	return FilterSpec{M: 4096, NormalizedDoppler: 0.05}
}

func TestKMMatchesPaper(t *testing.T) {
	if got := paperSpec().KM(); got != 204 {
		t.Errorf("km = %d, want 204 (paper Section 6)", got)
	}
}

func TestFilterSpecValidate(t *testing.T) {
	if err := paperSpec().Validate(); err != nil {
		t.Errorf("paper spec rejected: %v", err)
	}
	bad := []FilterSpec{
		{M: 0, NormalizedDoppler: 0.05},
		{M: -4, NormalizedDoppler: 0.05},
		{M: 1024, NormalizedDoppler: 0},
		{M: 1024, NormalizedDoppler: 0.5},
		{M: 1024, NormalizedDoppler: -0.1},
		{M: 1024, NormalizedDoppler: math.NaN()},
		{M: 1024, NormalizedDoppler: math.Inf(1)},
		{M: 8, NormalizedDoppler: 0.01}, // km = 0
		// Not powers of two.
		{M: 1000, NormalizedDoppler: 0.05},
		{M: 4095, NormalizedDoppler: 0.05},
		{M: 65535, NormalizedDoppler: 0.05},
	}
	for _, s := range bad {
		err := s.Validate()
		if err == nil {
			t.Errorf("Validate accepted invalid spec %+v", s)
			continue
		}
		// A NaN fm is out of range, not a band too narrow to hold a tap.
		if math.IsNaN(s.NormalizedDoppler) && !strings.Contains(err.Error(), "outside (0, 0.5)") {
			t.Errorf("Validate(%+v) = %v, want the fm range error", s, err)
		}
	}
}

func TestCoefficientsStructure(t *testing.T) {
	spec := paperSpec()
	f, err := spec.Coefficients()
	if err != nil {
		t.Fatalf("Coefficients: %v", err)
	}
	m := spec.M
	km := spec.KM()

	if len(f) != m {
		t.Fatalf("got %d coefficients, want %d", len(f), m)
	}
	if f[0] != 0 {
		t.Errorf("F[0] = %g, want 0 (Eq. 21)", f[0])
	}
	// Stop band must be exactly zero.
	for k := km + 1; k <= m-km-1; k++ {
		if f[k] != 0 {
			t.Errorf("stop-band coefficient F[%d] = %g, want 0", k, f[k])
			break
		}
	}
	// Pass band must be strictly positive and increasing toward the band edge
	// (the Jakes spectrum is U-shaped).
	for k := 1; k <= km-1; k++ {
		if f[k] <= 0 {
			t.Errorf("pass-band coefficient F[%d] = %g, want > 0", k, f[k])
		}
		if k > 1 && f[k] < f[k-1] {
			t.Errorf("pass-band coefficients not increasing at k=%d: %g < %g", k, f[k], f[k-1])
		}
	}
	// Symmetry F[k] = F[M−k] for k = 1..km (negative-frequency half).
	for k := 1; k <= km; k++ {
		if math.Abs(f[k]-f[m-k]) > 1e-12 {
			t.Errorf("filter not symmetric at k=%d: %g vs %g", k, f[k], f[m-k])
		}
	}
	// Band-edge value from Eq. (21).
	wantEdge := math.Sqrt(float64(km) / 2 * (math.Pi/2 - math.Atan(float64(km-1)/math.Sqrt(2*float64(km)-1))))
	if math.Abs(f[km]-wantEdge) > 1e-12 {
		t.Errorf("band-edge F[km] = %g, want %g", f[km], wantEdge)
	}
}

func TestCoefficientsFirstInBandValue(t *testing.T) {
	// Direct check of the closed form for a small case: F[1] with M=64,
	// fm=0.1 must be sqrt(1/(2·sqrt(1−(1/6.4)²))).
	spec := FilterSpec{M: 64, NormalizedDoppler: 0.1}
	f, err := spec.Coefficients()
	if err != nil {
		t.Fatalf("Coefficients: %v", err)
	}
	want := math.Sqrt(1 / (2 * math.Sqrt(1-math.Pow(1/(64*0.1), 2))))
	if math.Abs(f[1]-want) > 1e-14 {
		t.Errorf("F[1] = %.15g, want %.15g", f[1], want)
	}
}

func TestCoefficientsErrorOnInvalidSpec(t *testing.T) {
	if _, err := (FilterSpec{M: 8, NormalizedDoppler: 0.01}).Coefficients(); err == nil {
		t.Errorf("Coefficients accepted spec with km = 0")
	}
}

func TestOutputVarianceFormula(t *testing.T) {
	spec := paperSpec()
	f, err := spec.Coefficients()
	if err != nil {
		t.Fatalf("Coefficients: %v", err)
	}
	sigmaOrig2 := 0.5 // the paper's σ²_orig = 1/2
	got := OutputVariance(f, spec.M, sigmaOrig2)
	want := 2 * sigmaOrig2 / float64(spec.M*spec.M) * SumSquared(f)
	if math.Abs(got-want) > 1e-15 {
		t.Errorf("OutputVariance = %g, want %g", got, want)
	}
	if got <= 0 {
		t.Errorf("OutputVariance = %g, must be positive", got)
	}
	// The whole point of Section 5: the filter changes the variance, so σ²_g
	// is NOT the unit value the method of [6] assumes. For these parameters
	// the gain is far from 1.
	if math.Abs(got-1) < 0.5 {
		t.Errorf("output variance %g is too close to 1; the variance-changing effect should be pronounced", got)
	}
}

func TestSumSquared(t *testing.T) {
	if got := SumSquared([]float64{1, 2, 3}); math.Abs(got-14) > 1e-15 {
		t.Errorf("SumSquared = %g, want 14", got)
	}
	if got := SumSquared(nil); got != 0 {
		t.Errorf("SumSquared(nil) = %g, want 0", got)
	}
}

func TestTheoreticalAutocorrelation(t *testing.T) {
	// Lag zero must be J0(0) = 1 and the first zero of J0 must appear at
	// 2π·fm·d ≈ 2.405.
	if got := TheoreticalAutocorrelation(0.05, 0); math.Abs(got-1) > 1e-15 {
		t.Errorf("autocorrelation at lag 0 = %g, want 1", got)
	}
	// Pick fm so the first zero of J0 lands exactly on integer lag 8.
	fm := 2.404825557695773 / (2 * math.Pi * 8)
	if got := TheoreticalAutocorrelation(fm, 8); math.Abs(got) > 1e-10 {
		t.Errorf("autocorrelation at first J0 zero = %g, want 0", got)
	}
}

func TestPropertyFilterSymmetryAndPositivity(t *testing.T) {
	f := func(seed int64) bool {
		rng := newTestRand(seed)
		m := 64 << rng.Intn(5) // 64..1024
		fm := 0.02 + 0.4*rng.Float64()
		spec := FilterSpec{M: m, NormalizedDoppler: fm}
		if spec.Validate() != nil {
			return true // skip invalid combinations
		}
		coeffs, err := spec.Coefficients()
		if err != nil {
			return false
		}
		km := spec.KM()
		for k := 1; k <= km; k++ {
			if coeffs[k] < 0 || math.Abs(coeffs[k]-coeffs[m-k]) > 1e-12 {
				return false
			}
		}
		return OutputVariance(coeffs, m, 1) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
