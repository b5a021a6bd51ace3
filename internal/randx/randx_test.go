package randx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same seed produced different streams at step %d", i)
		}
	}
	c := New(43)
	same := true
	a = New(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical streams")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child1 := parent.Split()
	child2 := parent.Split()
	equal := 0
	for i := 0; i < 50; i++ {
		if child1.Float64() == child2.Float64() {
			equal++
		}
	}
	if equal > 5 {
		t.Errorf("split streams look identical (%d/50 equal draws)", equal)
	}
	// Splitting must be reproducible from the parent seed.
	parentB := New(7)
	childB := parentB.Split()
	childA := New(7).Split()
	for i := 0; i < 20; i++ {
		if childA.Float64() != childB.Float64() {
			t.Fatalf("Split is not a deterministic function of the parent seed")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := New(1)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := rng.Normal(2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Errorf("Normal mean = %g, want 2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Errorf("Normal variance = %g, want 9", variance)
	}
}

func TestComplexNormalVariance(t *testing.T) {
	rng := New(3)
	const n = 200000
	const sigma2 = 2.5
	var power, meanRe, meanIm, reVar, imVar float64
	for i := 0; i < n; i++ {
		z := rng.ComplexNormal(sigma2)
		power += real(z)*real(z) + imag(z)*imag(z)
		meanRe += real(z)
		meanIm += imag(z)
		reVar += real(z) * real(z)
		imVar += imag(z) * imag(z)
	}
	power /= n
	if math.Abs(power-sigma2) > 0.05 {
		t.Errorf("ComplexNormal power = %g, want %g", power, sigma2)
	}
	if math.Abs(meanRe/n) > 0.02 || math.Abs(meanIm/n) > 0.02 {
		t.Errorf("ComplexNormal mean = (%g, %g), want 0", meanRe/n, meanIm/n)
	}
	// Per-dimension variance must be sigma2/2 (circular symmetry).
	if math.Abs(reVar/n-sigma2/2) > 0.05 || math.Abs(imVar/n-sigma2/2) > 0.05 {
		t.Errorf("per-dimension variances (%g, %g), want %g", reVar/n, imVar/n, sigma2/2)
	}
}

func TestComplexNormalVector(t *testing.T) {
	rng := New(4)
	v := rng.ComplexNormalVector(50000, 1)
	if len(v) != 50000 {
		t.Fatalf("ComplexNormalVector length = %d", len(v))
	}
	var power float64
	for _, z := range v {
		power += real(z)*real(z) + imag(z)*imag(z)
	}
	power /= float64(len(v))
	if math.Abs(power-1) > 0.03 {
		t.Errorf("ComplexNormalVector power = %g, want 1", power)
	}
}

func TestRayleighMoments(t *testing.T) {
	rng := New(5)
	const n = 300000
	const sigma = 1.5
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		r := rng.Rayleigh(sigma)
		if r < 0 {
			t.Fatalf("Rayleigh sample is negative: %g", r)
		}
		sum += r
		sumSq += r * r
	}
	mean := sum / n
	meanSq := sumSq / n
	wantMean := sigma * math.Sqrt(math.Pi/2)
	wantMeanSq := 2 * sigma * sigma
	if math.Abs(mean-wantMean) > 0.01*wantMean {
		t.Errorf("Rayleigh mean = %g, want %g", mean, wantMean)
	}
	if math.Abs(meanSq-wantMeanSq) > 0.01*wantMeanSq {
		t.Errorf("Rayleigh mean square = %g, want %g", meanSq, wantMeanSq)
	}
}

func TestRayleighVectorLengthAndPositivity(t *testing.T) {
	rng := New(6)
	v := rng.RayleighVector(1000, 0.5)
	if len(v) != 1000 {
		t.Fatalf("RayleighVector length = %d", len(v))
	}
	for i, r := range v {
		if r <= 0 {
			t.Fatalf("RayleighVector[%d] = %g is not positive", i, r)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	rng := New(10)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
}

func TestPropertyRayleighQuantileMonotone(t *testing.T) {
	// Inverse-CDF sampling means larger uniform draws yield larger envelopes;
	// verify indirectly: Rayleigh samples from one stream stay finite and
	// positive for all scales.
	f := func(seed int64) bool {
		rng := New(seed)
		sigma := 0.1 + 5*rng.Float64()
		r := rng.Rayleigh(sigma)
		return r >= 0 && !math.IsInf(r, 1) && !math.IsNaN(r)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
