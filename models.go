package rayleigh

import (
	"fmt"

	"repro/internal/corrmodel"
)

// SpectralConfig describes correlation between fading processes observed at
// different carrier frequencies with arrival time delays — the OFDM-style
// scenario of Section 2 of the paper (Jakes' model, Eq. (3)–(4)).
type SpectralConfig struct {
	// Frequencies lists the carrier frequency of each process in Hz. Only
	// differences matter.
	Frequencies []float64
	// Delays[k][j] is the arrival time delay between processes k and j in
	// seconds; the matrix should be symmetric with a zero diagonal. A nil
	// table means all delays are zero.
	Delays [][]float64
	// MaxDopplerHz is the maximum Doppler shift Fm.
	MaxDopplerHz float64
	// RMSDelaySpread is the channel's RMS delay spread στ in seconds.
	RMSDelaySpread float64
	// Power is the common complex Gaussian power σ² of the processes; zero
	// selects 1.
	Power float64
}

// SpectralCovariance builds the covariance matrix of the complex Gaussian
// processes for the spectral-correlation model. The result can be passed to
// New or NewStream.
func SpectralCovariance(cfg SpectralConfig) ([][]complex128, error) {
	n := len(cfg.Frequencies)
	if n == 0 {
		return nil, fmt.Errorf("rayleigh: no carrier frequencies: %w", ErrInvalidConfig)
	}
	delays := cfg.Delays
	if delays == nil {
		delays = make([][]float64, n)
		for i := range delays {
			delays[i] = make([]float64, n)
		}
	}
	power := cfg.Power
	if power == 0 {
		power = 1
	}
	model := &corrmodel.SpectralModel{
		MaxDopplerHz:   cfg.MaxDopplerHz,
		RMSDelaySpread: cfg.RMSDelaySpread,
		Power:          power,
		Frequencies:    cfg.Frequencies,
		Delays:         delays,
	}
	res, err := model.Covariance()
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return res.Matrix.ToRows(), nil
}

// SpatialConfig describes correlation between the fades seen from a uniform
// linear transmit array — the MIMO scenario of Section 3 of the paper
// (Salz–Winters model, Eq. (5)–(7)).
type SpatialConfig struct {
	// Antennas is the number of transmit antennas.
	Antennas int
	// SpacingWavelengths is the antenna spacing D/λ.
	SpacingWavelengths float64
	// AngularSpreadRad is Δ, the half-width of the angular arrival cone in
	// radians.
	AngularSpreadRad float64
	// MeanAngleRad is Φ, the mean arrival angle in radians.
	MeanAngleRad float64
	// Power is the common complex Gaussian power σ²; zero selects 1.
	Power float64
}

// SpatialCovariance builds the covariance matrix of the complex Gaussian
// processes for the spatial-correlation model.
func SpatialCovariance(cfg SpatialConfig) ([][]complex128, error) {
	power := cfg.Power
	if power == 0 {
		power = 1
	}
	model := &corrmodel.SpatialModel{
		N:                  cfg.Antennas,
		SpacingWavelengths: cfg.SpacingWavelengths,
		AngularSpread:      cfg.AngularSpreadRad,
		MeanAngle:          cfg.MeanAngleRad,
		Power:              power,
	}
	res, err := model.Covariance()
	if err != nil {
		return nil, fmt.Errorf("rayleigh: %w", err)
	}
	return res.Matrix.ToRows(), nil
}
