package fading

import (
	"math"

	"repro/internal/stats"
)

// nakagami maps each Rayleigh envelope onto a Nakagami-m envelope of the same
// mean power Ω_j through the probability-integral transform:
//
//	p  = |z_j|²/Ω_j                      (Exp(1): Rayleigh CDF u = 1 − e^{−p})
//	G  = P⁻¹(m, 1 − e^{−p})              (Gamma(m, 1) quantile)
//	r' = sqrt(G·Ω_j/m)                   (Nakagami-m envelope, E[r'²] = Ω_j)
//	z' = z_j·(r'/|z_j|)                  (phase preserved)
//
// Every output is z_j times the scale sqrt(G(p)/(m·p)), a function of p alone
// for a given m. The constructor tabulates it over 2^−20 ≤ p < 2^5 (the
// probability of a sample outside is about 1e-6) at 64 intervals per binade;
// each knot holds the exact value and slope, and Apply interpolates between
// them with a cubic Hermite, locating the interval from p's exponent and
// mantissa bits. Outside the table Apply solves G(p) exactly. The tabulated
// G(p) satisfies |ln P(m, G) − ln(1 − e^{−p})| ≤ 1e-7 (p ≤ ln 2) and
// |ln Q(m, G) + p| ≤ 1e-7 (p > ln 2) for 0.5 ≤ m ≤ 50, so the envelope law
// lies within KS distance ~1e-7 of Nakagami(m, Ω_j).
//
// The map is monotone in the envelope, so the rank correlation structure of
// the correlated Rayleigh field carries over; m = 1 is the identity up to
// round-off.
type nakagami struct {
	m        float64
	lgm      float64   // ln Γ(m)
	invOmega []float64 // 1/Ω_j
	// coef[k] are the Hermite cubic's coefficients in the local coordinate
	// x ∈ [0, 1) of interval k: scale = c0 + x·(c1 + x·(c2 + x·c3)).
	coef [][4]float64
	// gEnd, dgEnd are G and dG/dp at the table's upper edge, the starting
	// point of the solve above it.
	gEnd, dgEnd float64
}

const (
	// The table spans the binades 2^tableMinExp ≤ p < 2^tableMaxExp with
	// 2^tableBits intervals each; interval k of the binade [2^e, 2^{e+1})
	// starts at 2^e·(1 + (k mod 2^tableBits)/2^tableBits).
	tableMinExp    = -20
	tableMaxExp    = 5
	tableBits      = 6
	tableIntervals = (tableMaxExp - tableMinExp) << tableBits
	// tableBias turns p's biased exponent and top tableBits mantissa bits
	// (bits >> fracBits) into the interval index; a p below the table gives
	// a negative index, so one unsigned compare checks both edges.
	fracBits  = 52 - tableBits
	tableBias = (1023 + tableMinExp) << tableBits
	// maxSolveP caps the exact solve where e^{−p} is still a normal float;
	// beyond it G(p) continues along its tangent (probability e^{−700}).
	maxSolveP = 700
	// tinyLogG is the ln G below which the leading term of P's series,
	// P(m, G) ≈ G^m/Γ(m+1), fixes G to a relative error of G/(m+1) < 1e-12.
	tinyLogG = -28
	// maxNewton bounds every solve; a knot's, started from its neighbour's
	// Taylor step, takes about two evaluations.
	maxNewton = 100
)

func newNakagami(m float64, powers []float64) *nakagami {
	lgm, _ := math.Lgamma(m)
	t := &nakagami{
		m:        m,
		lgm:      lgm,
		invOmega: make([]float64, len(powers)),
		coef:     make([][4]float64, tableIntervals),
	}
	for j, p := range powers {
		t.invOmega[j] = 1 / p
	}
	// Solve the knots in increasing p: each starts from a second-order
	// Taylor step off its neighbour, whose G bounds it from below.
	var prevP, prevS, prevDS, g, dg float64
	for k := 0; k <= tableIntervals; k++ {
		p := math.Ldexp(1+float64(k%(1<<tableBits))/(1<<tableBits), tableMinExp+(k>>tableBits))
		h := p - prevP
		if k == 0 {
			g = math.Exp(t.lowerBound(p))
			g = t.quantile(p, g, g)
		} else {
			// G'' = G'·(G'·(1 − (m−1)/G) − 1) differentiates slope's log.
			d2g := dg * (dg*(1-(m-1)/g) - 1)
			g = t.quantile(p, g+h*dg+h*h/2*d2g, g)
		}
		dg = t.slope(p, g)
		s := math.Sqrt(g / (m * p))
		// ds/dp = (s/2)·(G'/G − 1/p).
		ds := s / 2 * (dg/g - 1/p)
		if k > 0 {
			d0, d1 := h*prevDS, h*ds
			t.coef[k-1] = [4]float64{
				prevS,
				d0,
				3*(s-prevS) - 2*d0 - d1,
				2*(prevS-s) + d0 + d1,
			}
		}
		prevP, prevS, prevDS = p, s, ds
	}
	t.gEnd, t.dgEnd = g, dg
	return t
}

// fadinglint:allocfree
func (t *nakagami) Apply(env int, _ uint64, z []complex128, r []float64) {
	invOmega := t.invOmega[env]
	for i, v := range z {
		re, im := real(v), imag(v)
		a := re*re + im*im
		p := a * invOmega
		bits := math.Float64bits(p)
		var s float64
		if k := int(bits>>fracBits) - tableBias; uint(k) < tableIntervals {
			c := &t.coef[k]
			x := float64(bits&(1<<fracBits-1)) * (1.0 / (1 << fracBits))
			s = c[0] + x*(c[1]+x*(c[2]+x*c[3]))
		} else {
			s = t.exactScale(p)
		}
		z[i] = complex(re*s, im*s)
		r[i] = math.Sqrt(a) * s
	}
}

// exactScale returns sqrt(G(p)/(m·p)) for a p outside the table, solving
// G(p) directly; p = 0 maps to 0, so a zero sample stays zero.
func (t *nakagami) exactScale(p float64) float64 {
	if !(p > 0) {
		return 0
	}
	if p < math.Ldexp(1, tableMinExp) {
		lg := t.lowerBound(p)
		if lg >= tinyLogG {
			g := math.Exp(lg)
			lg = math.Log(t.quantile(p, g, g))
		}
		return math.Exp((lg - math.Log(t.m) - math.Log(p)) / 2)
	}
	q := math.Min(p, maxSolveP)
	tableEnd := math.Ldexp(1, tableMaxExp)
	g := t.quantile(q, t.gEnd+(q-tableEnd)*t.dgEnd, t.gEnd)
	if p > q {
		g += (p - q) * t.slope(q, g)
	}
	return math.Sqrt(g / (t.m * p))
}

// lowerBound returns ln G₀ with P(m, G₀) = 1 − e^{−p} under the leading term
// of P's series. The series' terms are positive, so G₀ ≤ G(p).
func (t *nakagami) lowerBound(p float64) float64 {
	return (math.Log(-math.Expm1(-p)) + t.lgm + math.Log(t.m)) / t.m
}

// slope returns dG/dp = e^{−p}·Γ(m)/(G^{m−1}·e^{−G}) at G = G(p).
func (t *nakagami) slope(p, g float64) float64 {
	return math.Exp(g - p + t.lgm - (t.m-1)*math.Log(g))
}

// quantile returns G(p), the Gamma(m, 1) quantile at probability 1 − e^{−p},
// by Newton steps from start; lo > 0 must not exceed G(p). Each side solves
// the well-conditioned equation: for p ≤ ln 2 (G below the median)
// ln P(m, e^v) = ln(1 − e^{−p}) in v = ln G, which is concave in v; above it
// ln Q(m, G) = −p in G, where Q's e^{−p} has no cancellation left.
func (t *nakagami) quantile(p, start, lo float64) float64 {
	if p <= math.Ln2 {
		// The median, below m, bounds the root from above.
		return math.Exp(t.newton(p, math.Log(start), math.Log(lo), math.Log(t.m)+1))
	}
	// Q(m, G) ≤ 2^m·e^{−G/2} bounds the root by 2(p + m·ln 2).
	return t.newton(p, start, lo, 2*(p+t.m*math.Ln2))
}

// newton solves the increasing equation f(v) = 0 of quantile's side of p,
// starting at v and keeping the root bracketed in [lo, hi]: a step that
// leaves the bracket, or lands where f is not finite, bisects instead.
func (t *nakagami) newton(p, v, lo, hi float64) float64 {
	lower := p <= math.Ln2
	logU := math.Log(-math.Expm1(-p))
	for range maxNewton {
		var f, df float64
		if lower {
			g := math.Exp(v)
			pg := stats.RegularizedGammaP(t.m, g)
			f = math.Log(pg) - logU
			df = math.Exp(t.m*v-g-t.lgm) / pg
		} else {
			q := stats.RegularizedGammaQ(t.m, v)
			f = -math.Log(q) - p
			df = math.Exp((t.m-1)*math.Log(v)-v-t.lgm) / q
		}
		if f <= 0 {
			lo = v
		}
		if f >= 0 {
			hi = v
		}
		step := f / df
		if math.Abs(step) <= 1e-10*math.Max(1, math.Abs(v)) {
			return v - step
		}
		if v -= step; !(v > lo && v < hi) {
			v = lo + (hi-lo)/2
		}
	}
	return v
}
