package stats

import (
	"fmt"
	"math"
)

// RayleighDist is the Rayleigh distribution with scale parameter sigma (the
// per-dimension standard deviation of the underlying complex Gaussian).
//
// Relations to the paper's quantities: a complex Gaussian of power σg² has
// per-dimension variance σg²/2, so its envelope is Rayleigh with
// Sigma = σg/sqrt(2). Eq. (14)–(15) then read
//
//	E{r}   = Sigma·sqrt(π/2) = 0.8862·σg
//	Var{r} = (2 − π/2)·Sigma² = 0.2146·σg².
type RayleighDist struct {
	Sigma float64
}

// NewRayleighFromGaussianPower builds the Rayleigh distribution of the
// envelope of a complex Gaussian with total power σg².
func NewRayleighFromGaussianPower(gaussianPower float64) (RayleighDist, error) {
	if gaussianPower <= 0 {
		return RayleighDist{}, fmt.Errorf("stats: Gaussian power %g must be positive: %w", gaussianPower, ErrBadInput)
	}
	return RayleighDist{Sigma: math.Sqrt(gaussianPower / 2)}, nil
}

// PDF returns the probability density at x.
func (d RayleighDist) PDF(x float64) float64 {
	if x < 0 || d.Sigma <= 0 {
		return 0
	}
	s2 := d.Sigma * d.Sigma
	return x / s2 * math.Exp(-x*x/(2*s2))
}

// CDF returns P(X <= x).
func (d RayleighDist) CDF(x float64) float64 {
	if x <= 0 || d.Sigma <= 0 {
		return 0
	}
	return 1 - math.Exp(-x*x/(2*d.Sigma*d.Sigma))
}

// Quantile returns the p-quantile (inverse CDF).
func (d RayleighDist) Quantile(p float64) (float64, error) {
	if p < 0 || p >= 1 {
		return 0, fmt.Errorf("stats: Rayleigh quantile level %g outside [0,1): %w", p, ErrBadInput)
	}
	return d.Sigma * math.Sqrt(-2*math.Log(1-p)), nil
}

// Mean returns E{X} = Sigma·sqrt(π/2).
func (d RayleighDist) Mean() float64 {
	return d.Sigma * math.Sqrt(math.Pi/2)
}

// Variance returns Var{X} = (2 − π/2)·Sigma².
func (d RayleighDist) Variance() float64 {
	return (2 - math.Pi/2) * d.Sigma * d.Sigma
}

// MeanSquare returns E{X²} = 2·Sigma², the envelope power.
func (d RayleighDist) MeanSquare() float64 {
	return 2 * d.Sigma * d.Sigma
}

// FitRayleigh estimates the scale parameter from a sample by maximum
// likelihood, which for the Rayleigh distribution coincides with the moment
// estimator based on the mean square: σ̂² = (1/2n)·Σ x_i².
func FitRayleigh(x []float64) (RayleighDist, error) {
	if len(x) == 0 {
		return RayleighDist{}, fmt.Errorf("stats: FitRayleigh on empty sample: %w", ErrBadInput)
	}
	var s float64
	for _, v := range x {
		if v < 0 {
			return RayleighDist{}, fmt.Errorf("stats: FitRayleigh with negative value %g: %w", v, ErrBadInput)
		}
		s += v * v
	}
	return RayleighDist{Sigma: math.Sqrt(s / (2 * float64(len(x))))}, nil
}

// KolmogorovSmirnovRayleigh returns the one-sample KS statistic of the sample
// against the given Rayleigh distribution and the asymptotic p-value from the
// Kolmogorov distribution. Small statistics / large p-values indicate the
// sample is consistent with the distribution.
func KolmogorovSmirnovRayleigh(x []float64, d RayleighDist) (statistic, pValue float64, err error) {
	return KolmogorovSmirnov(x, d.CDF)
}

// kolmogorovPValue evaluates the asymptotic Kolmogorov survival function
// Q(λ) = 2·Σ_{k>=1} (−1)^{k−1}·exp(−2k²λ²).
func kolmogorovPValue(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	for k := 1; k <= 200; k++ {
		term := sign * math.Exp(-2*float64(k)*float64(k)*lambda*lambda)
		sum += term
		sign = -sign
		if math.Abs(term) < 1e-16 {
			break
		}
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}
