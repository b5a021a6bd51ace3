package stats

import (
	"fmt"
	"math"
	"math/cmplx"
)

// LaggedAutocorrelation returns the normalized autocorrelation of a complex
// series at lags 0..maxLag: ρ[d] = Re{r[d]} / Re{r[0]} where r is the biased
// sample autocorrelation. For a Jakes-faded process this estimates
// J0(2π·fm·d).
func LaggedAutocorrelation(x []complex128, maxLag int) ([]float64, error) {
	n := len(x)
	if n == 0 {
		return nil, fmt.Errorf("stats: LaggedAutocorrelation of empty series: %w", ErrBadInput)
	}
	if maxLag < 0 || maxLag >= n {
		return nil, fmt.Errorf("stats: maxLag %d out of range for length %d: %w", maxLag, n, ErrBadInput)
	}
	out := make([]float64, maxLag+1)
	var r0 float64
	for _, v := range x {
		r0 += real(v)*real(v) + imag(v)*imag(v)
	}
	if r0 == 0 {
		return nil, fmt.Errorf("stats: zero-power series: %w", ErrBadInput)
	}
	for d := 0; d <= maxLag; d++ {
		var sum complex128
		for l := 0; l+d < n; l++ {
			sum += x[l+d] * cmplx.Conj(x[l])
		}
		out[d] = real(sum) / r0
	}
	return out, nil
}

// EnvelopeDB converts an envelope series to decibels relative to its RMS
// value, the normalization used for the paper's Fig. 4.
func EnvelopeDB(envelope []float64) ([]float64, error) {
	rms, err := RMS(envelope)
	if err != nil {
		return nil, err
	}
	if rms == 0 {
		return nil, fmt.Errorf("stats: zero RMS envelope: %w", ErrBadInput)
	}
	out := make([]float64, len(envelope))
	for i, v := range envelope {
		if v <= 0 {
			// A true zero envelope sample has probability zero; guard the log
			// anyway so plotting code never sees -Inf.
			out[i] = -300
			continue
		}
		out[i] = 20 * math.Log10(v/rms)
	}
	return out, nil
}
