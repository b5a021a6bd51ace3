// Package stats provides the estimators used to validate the generated
// fading envelopes against the paper's claims: sample covariance matrices of
// complex vectors, Rayleigh and Nakagami-m distributions with
// Kolmogorov–Smirnov and chi-square goodness-of-fit tests, and the lagged
// autocorrelation of a fading series.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput reports invalid estimator input (usually an empty sample).
var ErrBadInput = errors.New("stats: invalid input")

// Mean returns the arithmetic mean of the sample.
func Mean(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("stats: Mean of empty sample: %w", ErrBadInput)
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x)), nil
}

// Variance returns the population (biased, divide-by-n) variance of the
// sample. The generators in this module produce very large samples, so the
// distinction from the unbiased estimator is immaterial; the biased form
// matches the covariance estimator used for the matrices.
func Variance(x []float64) (float64, error) {
	m, err := Mean(x)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x)), nil
}

// MeanSquare returns (1/n)·Σ x_i².
func MeanSquare(x []float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("stats: MeanSquare of empty sample: %w", ErrBadInput)
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return s / float64(len(x)), nil
}

// RMS returns the root mean square of the sample.
func RMS(x []float64) (float64, error) {
	ms, err := MeanSquare(x)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(ms), nil
}
