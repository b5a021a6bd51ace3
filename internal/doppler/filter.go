// Package doppler implements the real-time fading substrate of Section 5 of
// the paper: the Young–Beaulieu IDFT-based Rayleigh generator (Fig. 2), the
// Doppler filter coefficients of Eq. (21), the output-variance formula of
// Eq. (19) and the theoretical autocorrelation of Eq. (16)–(20).
package doppler

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/specfunc"
)

// ErrBadParameter reports an invalid generator parameter.
var ErrBadParameter = errors.New("doppler: invalid parameter")

// FilterSpec describes a Doppler filter design.
type FilterSpec struct {
	// M is the IDFT length (number of frequency-domain points and of
	// generated time samples per block). It must be a power of two.
	M int
	// NormalizedDoppler is fm = Fm/Fs, the maximum Doppler shift normalized
	// by the sampling rate. It must lie in (0, 0.5).
	NormalizedDoppler float64
}

// Validate checks the filter parameters. M must be a power of two, the only
// lengths the IDFT plans of internal/dsp transform. The constraint km >= 1
// (at least one in-band coefficient) translates to fm >= 1/M.
func (s FilterSpec) Validate() error {
	if s.M <= 0 || s.M&(s.M-1) != 0 {
		return fmt.Errorf("doppler: IDFT length M = %d is not a power of two: %w", s.M, ErrBadParameter)
	}
	if !(0 < s.NormalizedDoppler && s.NormalizedDoppler < 0.5) {
		return fmt.Errorf("doppler: normalized Doppler fm = %g outside (0, 0.5): %w", s.NormalizedDoppler, ErrBadParameter)
	}
	if s.KM() < 1 {
		return fmt.Errorf("doppler: fm·M = %g < 1 leaves no in-band filter coefficient: %w",
			s.NormalizedDoppler*float64(s.M), ErrBadParameter)
	}
	if 2*s.KM() >= s.M {
		return fmt.Errorf("doppler: km = %d too large for M = %d: %w", s.KM(), s.M, ErrBadParameter)
	}
	return nil
}

// KM returns km = floor(fm·M), the index of the Doppler band edge.
func (s FilterSpec) KM() int {
	return int(math.Floor(s.NormalizedDoppler * float64(s.M)))
}

// Coefficients returns the real Doppler filter coefficients F[k] of Eq. (21)
// for k = 0..M−1. The filter shapes white Gaussian spectra into the Jakes
// U-shaped Doppler spectrum, with the band-edge coefficient chosen so that
// the resulting autocorrelation is exactly J0(2π·fm·d) (Young & Beaulieu).
func (s FilterSpec) Coefficients() ([]float64, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := s.M
	fm := s.NormalizedDoppler
	km := s.KM()

	f := make([]float64, m)
	// Band-edge value: sqrt( km/2 · [π/2 − arctan((km−1)/sqrt(2km−1))] ).
	edge := math.Sqrt(float64(km) / 2 * (math.Pi/2 - math.Atan(float64(km-1)/math.Sqrt(2*float64(km)-1))))

	for k := 0; k < m; k++ {
		switch {
		case k == 0:
			f[k] = 0
		case k >= 1 && k <= km-1:
			f[k] = math.Sqrt(1 / (2 * math.Sqrt(1-math.Pow(float64(k)/(float64(m)*fm), 2))))
		case k == km:
			f[k] = edge
		case k >= km+1 && k <= m-km-1:
			f[k] = 0
		case k == m-km:
			f[k] = edge
		default: // k = M−km+1 .. M−1
			f[k] = math.Sqrt(1 / (2 * math.Sqrt(1-math.Pow(float64(m-k)/(float64(m)*fm), 2))))
		}
	}
	return f, nil
}

// SumSquared returns Σ F[k]², which enters the output-variance formula of
// Eq. (19).
func SumSquared(coeffs []float64) float64 {
	var s float64
	for _, c := range coeffs {
		s += c * c
	}
	return s
}

// OutputVariance returns the variance σ²_g of the complex Gaussian sequence
// at the output of the IDFT generator, Eq. (19):
//
//	σ²_g = 2·σ²_orig/M² · Σ_k F[k]².
//
// Accounting for this filter gain — instead of assuming unit variance as the
// method in [6] does — is the paper's key correction for the real-time mode.
func OutputVariance(coeffs []float64, m int, sigmaOrig2 float64) float64 {
	return 2 * sigmaOrig2 / float64(m*m) * SumSquared(coeffs)
}

// TheoreticalAutocorrelation returns the normalized autocorrelation
// J0(2π·fm·d) that the generated sequence is designed to follow (Eq. (20)).
func TheoreticalAutocorrelation(fm float64, lag int) float64 {
	return specfunc.BesselJ0(2 * math.Pi * fm * float64(lag))
}
