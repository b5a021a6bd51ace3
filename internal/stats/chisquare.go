package stats

import (
	"fmt"
	"math"
)

// ChiSquareResult holds the outcome of a chi-square goodness-of-fit test.
type ChiSquareResult struct {
	// Statistic is the chi-square test statistic Σ (O−E)²/E.
	Statistic float64
	// DegreesOfFreedom is bins − 1 − estimatedParams.
	DegreesOfFreedom int
	// PValue is the upper-tail probability of the chi-square distribution at
	// the statistic.
	PValue float64
}

// ChiSquareRayleigh performs a chi-square goodness-of-fit test of the sample
// against the given Rayleigh distribution using equal-probability bins
// (so every bin has the same expected count). estimatedParams should be 1
// when the distribution's scale was fitted from the same sample, 0 when it
// was fixed a priori.
func ChiSquareRayleigh(x []float64, d RayleighDist, bins, estimatedParams int) (ChiSquareResult, error) {
	if len(x) == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square on empty sample: %w", ErrBadInput)
	}
	if bins < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: chi-square needs at least 2 bins, got %d: %w", bins, ErrBadInput)
	}
	dof := bins - 1 - estimatedParams
	if dof < 1 {
		return ChiSquareResult{}, fmt.Errorf("stats: non-positive degrees of freedom (%d bins, %d estimated params): %w",
			bins, estimatedParams, ErrBadInput)
	}
	expected := float64(len(x)) / float64(bins)
	if expected < 5 {
		return ChiSquareResult{}, fmt.Errorf("stats: expected count per bin %.1f < 5; use fewer bins or more samples: %w",
			expected, ErrBadInput)
	}

	// Equal-probability bin edges from the Rayleigh quantile function.
	edges := make([]float64, bins+1)
	edges[0] = 0
	edges[bins] = math.Inf(1)
	for i := 1; i < bins; i++ {
		q, err := d.Quantile(float64(i) / float64(bins))
		if err != nil {
			return ChiSquareResult{}, err
		}
		edges[i] = q
	}

	counts := make([]int, bins)
	for _, v := range x {
		// Linear scan is fine: bins is small (typically 10–50).
		for b := 0; b < bins; b++ {
			if v >= edges[b] && v < edges[b+1] {
				counts[b]++
				break
			}
		}
	}

	var stat float64
	for _, c := range counts {
		diff := float64(c) - expected
		stat += diff * diff / expected
	}
	return ChiSquareResult{
		Statistic:        stat,
		DegreesOfFreedom: dof,
		PValue:           chiSquareSurvival(stat, dof),
	}, nil
}

// chiSquareSurvival returns P(X > x) for a chi-square distribution with k
// degrees of freedom, via the regularized upper incomplete gamma function
// Q(k/2, x/2).
func chiSquareSurvival(x float64, k int) float64 {
	if x <= 0 {
		return 1
	}
	return regularizedGammaQ(float64(k)/2, x/2)
}

// regularizedGammaQ computes Q(a, x) = Γ(a, x)/Γ(a) using the series
// expansion for x < a+1 and the Lentz continued fraction otherwise
// (Numerical Recipes 6.2).
func regularizedGammaQ(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 1
	}
	if x < a+1 {
		return 1 - lowerGammaSeries(a, x)
	}
	return upperGammaCF(a, x)
}

// lowerGammaSeries evaluates P(a, x) by its power series.
func lowerGammaSeries(a, x float64) float64 {
	lgA, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < 500; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*1e-15 {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lgA)
}

// upperGammaCF evaluates Q(a, x) by the Lentz continued fraction.
func upperGammaCF(a, x float64) float64 {
	lgA, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= 500; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-15 {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lgA) * h
}
