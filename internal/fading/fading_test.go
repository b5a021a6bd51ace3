package fading

import (
	"math"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/randx"
	"repro/internal/stats"
)

// drawGaussians fills one envelope row of complex Gaussians with E|z|² = omega.
func drawGaussians(rng *randx.RNG, n int, omega float64) ([]complex128, []float64) {
	z := make([]complex128, n)
	rng.FillComplexNormal(z, omega)
	r := make([]float64, n)
	for i, v := range z {
		r[i] = math.Hypot(real(v), imag(v))
	}
	return z, r
}

func TestNewVocabulary(t *testing.T) {
	if tr, err := New("rayleigh", nil, []float64{1}, 1); err != nil || tr != nil {
		t.Fatalf("rayleigh: transform %v, err %v; want nil, nil", tr, err)
	}
	if tr, err := New("", nil, []float64{1}, 1); err != nil || tr != nil {
		t.Fatalf("default: transform %v, err %v; want nil, nil", tr, err)
	}
	segs := &chanspec.FadingParams{Segments: []chanspec.DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.1}}}
	if tr, err := New(chanspec.FadingNonstationaryDoppler, segs, []float64{1}, 1); err != nil || tr != nil {
		t.Fatalf("nonstationary: transform %v, err %v; want nil, nil (panel-level model)", tr, err)
	}
	if _, err := New("warp", nil, []float64{1}, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := New(chanspec.FadingRician, nil, []float64{1}, 1); err == nil {
		t.Fatal("rician without params accepted")
	}
}

func TestRicianMoments(t *testing.T) {
	const (
		n     = 200000
		k     = 4.0
		omega = 2.5
		phase = 0.7
	)
	tr, err := New(chanspec.FadingRician, &chanspec.FadingParams{KFactor: k, LOSPhaseRad: phase}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z, r := drawGaussians(randx.New(11), n, omega)
	tr.Apply(0, 0, z, r)
	var mean complex128
	var power float64
	for i, v := range z {
		mean += v
		power += real(v)*real(v) + imag(v)*imag(v)
		if got := math.Hypot(real(v), imag(v)); math.Abs(got-r[i]) > 1e-12 {
			t.Fatalf("envelope %d inconsistent with sample: %g vs %g", i, r[i], got)
		}
	}
	mean /= complex(float64(n), 0)
	power /= float64(n)
	// Total mean power stays Ω.
	if math.Abs(power-omega) > 0.05*omega {
		t.Errorf("mean power %g, want %g", power, omega)
	}
	// Moment K estimate: |μ|²/(E|z|²−|μ|²).
	mu2 := real(mean)*real(mean) + imag(mean)*imag(mean)
	kHat := mu2 / (power - mu2)
	if math.Abs(kHat-k) > 0.15*k {
		t.Errorf("K estimate %g, want %g", kHat, k)
	}
	// LOS phase shows in the mean direction.
	if got := math.Atan2(imag(mean), real(mean)); math.Abs(got-phase) > 0.05 {
		t.Errorf("LOS phase %g, want %g", got, phase)
	}
}

func TestNakagamiEnvelopeDistribution(t *testing.T) {
	const (
		n     = 60000
		m     = 2.5
		omega = 1.7
	)
	tr, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: m}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z, r := drawGaussians(randx.New(5), n, omega)
	zorig := append([]complex128(nil), z...)
	tr.Apply(0, 0, z, r)
	d := stats.NakagamiDist{M: m, Omega: omega}
	_, p, err := stats.KolmogorovSmirnov(r, d.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("Nakagami KS p-value %g < 0.01", p)
	}
	// The transform preserves phase and is monotone in the envelope.
	for i := range z {
		if zorig[i] == 0 {
			continue
		}
		orig := math.Atan2(imag(zorig[i]), real(zorig[i]))
		now := math.Atan2(imag(z[i]), real(z[i]))
		if math.Abs(orig-now) > 1e-9 {
			t.Fatalf("sample %d phase changed: %g -> %g", i, orig, now)
		}
	}
	// m = 1 is the identity up to round-off.
	tr1, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 1}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z1, r1 := drawGaussians(randx.New(5), 1000, omega)
	orig := append([]complex128(nil), z1...)
	tr1.Apply(0, 0, z1, r1)
	for i := range z1 {
		if math.Hypot(real(z1[i]-orig[i]), imag(z1[i]-orig[i])) > 1e-6*math.Hypot(real(orig[i]), imag(orig[i]))+1e-9 {
			t.Fatalf("m=1 sample %d moved: %v -> %v", i, orig[i], z1[i])
		}
	}
}

// nakagamiForwardError is the oracle for the Nakagami transform: how far G
// misses the equation the transform inverts, checked forward on the side
// where it is well conditioned, without reusing the inversion.
func nakagamiForwardError(m, p, g float64) float64 {
	if p <= math.Ln2 {
		return math.Abs(math.Log(stats.RegularizedGammaP(m, g)) - math.Log(-math.Expm1(-p)))
	}
	return math.Abs(math.Log(stats.RegularizedGammaQ(m, g)) + p)
}

// applyNakagamiAt runs the m transform on real samples with |z|²/Ω = p for
// each p, returning the envelopes and G = m·p·scale² read back from them.
func applyNakagamiAt(t *testing.T, m, omega float64, ps []float64) (r, g []float64) {
	t.Helper()
	tr, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: m}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]complex128, len(ps))
	for i, p := range ps {
		z[i] = complex(math.Sqrt(p*omega), 0)
	}
	r = make([]float64, len(ps))
	tr.Apply(0, 0, z, r)
	g = make([]float64, len(ps))
	for i, p := range ps {
		s := real(z[i]) / math.Sqrt(p*omega)
		g[i] = m * p * s * s
	}
	return r, g
}

// TestNakagamiInversionOracle bounds the transform's error over shapes from
// 0.5 to 50 and p = |z|²/Ω from 1e-6 to 40, across both edges of the
// transform's table, and checks the envelope never decreases in p.
func TestNakagamiInversionOracle(t *testing.T) {
	const (
		n     = 100000
		omega = 1.7
		tol   = 1e-7
	)
	ps := make([]float64, n)
	for i := range ps {
		ps[i] = 1e-6 * math.Pow(40/1e-6, float64(i)/(n-1))
	}
	for _, m := range []float64{0.5, 0.6, 0.9, 1, 1.5, 2.5, 5, 10, 20, 50} {
		r, g := applyNakagamiAt(t, m, omega, ps)
		var worst, worstP float64
		for i, p := range ps {
			if i > 0 && r[i] < r[i-1] {
				t.Fatalf("m=%g: envelope decreases from %.17g at p=%g to %.17g at p=%g", m, r[i-1], ps[i-1], r[i], p)
			}
			if e := nakagamiForwardError(m, p, g[i]); !(e <= worst) {
				worst, worstP = e, p
			}
		}
		if !(worst <= tol) {
			t.Errorf("m=%g: forward error %.3g at p=%.6g exceeds %g", m, worst, worstP, tol)
		}
		t.Logf("m=%g: max forward error %.3g at p=%.4g", m, worst, worstP)
	}
}

// TestNakagamiUpperTail is the regression test for the saturated upper
// tail: past p ≈ 37.4, 1 − e^{−p} rounds to 1, and inverting P there mapped
// every such sample onto one clamped G. The envelope must keep increasing
// and meet the oracle.
func TestNakagamiUpperTail(t *testing.T) {
	const m = 2.5
	ps := []float64{30, 36, 37.5, 40, 60}
	r, g := applyNakagamiAt(t, m, 1.7, ps)
	for i, p := range ps {
		if i > 0 && !(r[i] > r[i-1]) {
			t.Errorf("envelope %.17g at p=%g does not exceed %.17g at p=%g", r[i], p, r[i-1], ps[i-1])
		}
		if e := nakagamiForwardError(m, p, g[i]); !(e <= 1e-7) {
			t.Errorf("p=%g: G=%.17g, forward error %.3g exceeds 1e-7", p, g[i], e)
		}
	}
}

func TestSuzukiLogMomentsAndRandomAccess(t *testing.T) {
	const (
		nBlocks   = 400
		blockLen  = 512
		sigmaDB   = 4.3
		coherence = 128
		omega     = 1.0
	)
	tr, err := New(chanspec.FadingSuzuki,
		&chanspec.FadingParams{ShadowSigmaDB: sigmaDB, ShadowCoherence: coherence}, []float64{omega}, 77)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	logs := make([]float64, 0, nBlocks*blockLen)
	for b := 0; b < nBlocks; b++ {
		z, r := drawGaussians(rng, blockLen, omega)
		tr.Apply(0, uint64(b*blockLen), z, r)
		for _, v := range r {
			if v > 0 {
				logs = append(logs, 20*math.Log10(v))
			}
		}
	}
	mean, _ := stats.Mean(logs)
	variance, _ := stats.Variance(logs)
	// 20·log10(r) for a Suzuki envelope: Rayleigh log-mean (10/ln10)(lnΩ−γ)
	// shifted by the zero-mean shadowing, variance 31.0249 + σ_dB².
	const gamma = 0.5772156649015329
	wantMean := 10 / math.Ln10 * (math.Log(omega) - gamma)
	wantVar := math.Pow(10/math.Ln10, 2)*math.Pi*math.Pi/6 + sigmaDB*sigmaDB
	if math.Abs(mean-wantMean) > 0.4 {
		t.Errorf("log-envelope mean %g, want %g", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("log-envelope variance %g, want %g", variance, wantVar)
	}

	// Random access: applying the same row in two halves with matching
	// offsets is byte-identical to one call, and continuous across the seam.
	z, r := drawGaussians(randx.New(4), 2*coherence, omega)
	z2 := append([]complex128(nil), z...)
	r2 := append([]float64(nil), r...)
	tr.Apply(0, 1000, z, r)
	tr.Apply(0, 1000, z2[:coherence], r2[:coherence])
	tr.Apply(0, 1000+coherence, z2[coherence:], r2[coherence:])
	for i := range z {
		if z[i] != z2[i] || r[i] != r2[i] {
			t.Fatalf("split apply diverges at %d: %v/%v vs %v/%v", i, z[i], r[i], z2[i], r2[i])
		}
	}
	// Different envelopes shadow independently.
	za, ra := drawGaussians(randx.New(4), coherence, omega)
	zb := append([]complex128(nil), za...)
	rb := append([]float64(nil), ra...)
	tr.Apply(0, 0, za, ra)
	tr.Apply(1, 0, zb, rb)
	same := 0
	for i := range za {
		if za[i] == zb[i] {
			same++
		}
	}
	if same == len(za) {
		t.Fatal("envelopes 0 and 1 share identical shadowing")
	}
}

// TestSuzukiShadowContinuity checks the interpolated shadowing hits its knots
// exactly and moves smoothly in between (no jumps larger than the knot gap
// implies at the sample scale).
func TestSuzukiShadowContinuity(t *testing.T) {
	const coherence = 64
	tr := newSuzuki(6, coherence, 123)
	n := 4 * coherence
	z := make([]complex128, n)
	r := make([]float64, n)
	for i := range z {
		z[i] = 1 // unit samples: r becomes the shadowing gain itself
	}
	tr.Apply(0, 0, z, r)
	for i := 1; i < n; i++ {
		ratio := r[i] / r[i-1]
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("shadowing jump at %d: gain %g -> %g", i, r[i-1], r[i])
		}
	}
}
