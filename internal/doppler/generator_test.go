package doppler

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/randx"
)

// newTestRand returns a deterministic *rand.Rand for property tests.
func newTestRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// newBlock draws one block into a fresh slice.
func newBlock(t *testing.T, g *Generator, rng *randx.RNG) []complex128 {
	t.Helper()
	out := make([]complex128, g.spec.M)
	if err := g.BlockInto(rng, out); err != nil {
		t.Fatalf("BlockInto: %v", err)
	}
	return out
}

func TestNewGeneratorValidation(t *testing.T) {
	for _, v := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewGenerator(paperSpec(), v); err == nil {
			t.Errorf("NewGenerator accepted input variance %g", v)
		}
	}
	if _, err := NewGenerator(FilterSpec{M: 8, NormalizedDoppler: 0.01}, 1); err == nil {
		t.Errorf("NewGenerator accepted invalid filter spec")
	}
	g, err := NewGenerator(paperSpec(), 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if len(g.Coefficients()) != 4096 {
		t.Errorf("Coefficients length = %d", len(g.Coefficients()))
	}
}

func TestBlockLengthAndZeroMean(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 1024, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := randx.New(1)
	block := newBlock(t, g, rng)
	if len(block) != 1024 {
		t.Fatalf("block length = %d, want 1024", len(block))
	}
	var meanRe, meanIm float64
	for _, v := range block {
		meanRe += real(v)
		meanIm += imag(v)
	}
	meanRe /= float64(len(block))
	meanIm /= float64(len(block))
	std := math.Sqrt(g.OutputVariance())
	if math.Abs(meanRe) > 0.4*std || math.Abs(meanIm) > 0.4*std {
		t.Errorf("block mean (%g, %g) too far from zero (std %g)", meanRe, meanIm, std)
	}
}

func TestBlockEmpiricalVarianceMatchesEq19(t *testing.T) {
	// Average |u[l]|² over many independent blocks must converge to the σ²_g
	// of Eq. (19) — the variance-changing effect the paper corrects for.
	g, err := NewGenerator(FilterSpec{M: 512, NormalizedDoppler: 0.08}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := randx.New(2)
	const blocks = 60
	var power float64
	for b := 0; b < blocks; b++ {
		for _, v := range newBlock(t, g, rng) {
			power += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	power /= blocks * float64(g.spec.M)
	want := g.OutputVariance()
	if math.Abs(power-want) > 0.05*want {
		t.Errorf("empirical block power %g differs from Eq. (19) value %g by more than 5%%", power, want)
	}
}

func TestBlockAutocorrelationFollowsJ0(t *testing.T) {
	// The normalized autocorrelation of the generated process must track
	// J0(2π·fm·d) over the first lags (Eq. (20)). Average several blocks to
	// tame estimation noise.
	spec := FilterSpec{M: 2048, NormalizedDoppler: 0.05}
	g, err := NewGenerator(spec, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := randx.New(3)
	const blocks = 30
	maxLag := 60
	acc := make([]float64, maxLag+1)
	for b := 0; b < blocks; b++ {
		block := newBlock(t, g, rng)
		for d := 0; d <= maxLag; d++ {
			var sum complex128
			for l := 0; l+d < len(block); l++ {
				sum += block[l+d] * cmplx.Conj(block[l])
			}
			acc[d] += real(sum)
		}
	}
	norm := acc[0]
	for d := 0; d <= maxLag; d++ {
		got := acc[d] / norm
		want := TheoreticalAutocorrelation(spec.NormalizedDoppler, d)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("lag %d: empirical autocorrelation %g vs J0 %g", d, got, want)
		}
	}
}

func TestBlockRealImagUncorrelated(t *testing.T) {
	// Eq. (18) with the real filter of Eq. (21): the real and imaginary parts
	// at the same instant are uncorrelated, which is required for the
	// envelope to be Rayleigh distributed.
	g, err := NewGenerator(FilterSpec{M: 2048, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := randx.New(4)
	const blocks = 40
	var cross, power float64
	for b := 0; b < blocks; b++ {
		block := newBlock(t, g, rng)
		for _, v := range block {
			cross += real(v) * imag(v)
			power += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	// Normalize the cross-term by the average per-dimension power.
	rho := cross / (power / 2)
	if math.Abs(rho) > 0.03 {
		t.Errorf("normalized real/imag cross-correlation = %g, want ≈ 0", rho)
	}
}

func TestGeneratorDeterministicForFixedSeed(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 256, NormalizedDoppler: 0.1}, 1)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	b1 := newBlock(t, g, randx.New(99))
	b2 := newBlock(t, g, randx.New(99))
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("blocks from identical seeds differ at sample %d", i)
		}
	}
}

func TestOutputVarianceScalesWithInputVariance(t *testing.T) {
	spec := FilterSpec{M: 512, NormalizedDoppler: 0.05}
	g1, err := NewGenerator(spec, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	g2, err := NewGenerator(spec, 1.0)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if math.Abs(g2.OutputVariance()-2*g1.OutputVariance()) > 1e-12 {
		t.Errorf("output variance does not scale linearly with input variance")
	}
}
