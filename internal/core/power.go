package core

import (
	"fmt"
	"math"
)

// rayleighVarianceFactor is (1 − π/4), the ratio between the variance of a
// Rayleigh envelope and the power of its underlying complex Gaussian
// (Eq. (15)): Var{r} = σg²·(1 − π/4) ≈ 0.2146·σg².
const rayleighVarianceFactor = 1 - math.Pi/4

// rayleighMeanFactor is sqrt(π)/2 ≈ 0.8862, the ratio between the mean of a
// Rayleigh envelope and the Gaussian standard deviation σg (Eq. (14)).
var rayleighMeanFactor = math.Sqrt(math.Pi) / 2

// EnvelopePowerToGaussianPower converts a desired Rayleigh-envelope variance
// σr² into the power σg² of the complex Gaussian that produces it, Eq. (11):
//
//	σg² = σr² / (1 − π/4).
func EnvelopePowerToGaussianPower(envelopeVariance float64) (float64, error) {
	if envelopeVariance <= 0 {
		return 0, fmt.Errorf("core: envelope variance %g must be positive: %w", envelopeVariance, ErrBadInput)
	}
	return envelopeVariance / rayleighVarianceFactor, nil
}

// GaussianPowerToEnvelopeVariance inverts Eq. (11): the variance of the
// Rayleigh envelope produced by a complex Gaussian of power σg² (Eq. (15)).
func GaussianPowerToEnvelopeVariance(gaussianPower float64) (float64, error) {
	if gaussianPower <= 0 {
		return 0, fmt.Errorf("core: Gaussian power %g must be positive: %w", gaussianPower, ErrBadInput)
	}
	return gaussianPower * rayleighVarianceFactor, nil
}

// ExpectedEnvelopeMean returns E{r} = σg·sqrt(π)/2 ≈ 0.8862·σg for a complex
// Gaussian of power σg² (Eq. (14)).
func ExpectedEnvelopeMean(gaussianPower float64) (float64, error) {
	if gaussianPower <= 0 {
		return 0, fmt.Errorf("core: Gaussian power %g must be positive: %w", gaussianPower, ErrBadInput)
	}
	return rayleighMeanFactor * math.Sqrt(gaussianPower), nil
}

// EnvelopePowersToGaussianPowers applies Eq. (11) element-wise.
func EnvelopePowersToGaussianPowers(envelopeVariances []float64) ([]float64, error) {
	out := make([]float64, len(envelopeVariances))
	for i, v := range envelopeVariances {
		g, err := EnvelopePowerToGaussianPower(v)
		if err != nil {
			return nil, fmt.Errorf("core: envelope %d: %w", i, err)
		}
		out[i] = g
	}
	return out, nil
}
