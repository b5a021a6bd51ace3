// Package chanspec is the shared channel-specification vocabulary of this
// repository: a Model names one of the paper's correlation models
// (eq22/identity/explicit/exponential/constant/spectral/spatial) with its
// physical parameters, and Build assembles the covariance matrix it
// describes. The scenario harness (internal/scenario) and the fadingd
// streaming service (internal/service) both speak this one spec language, so
// a channel calibrated in a scenario file can be served over the wire
// verbatim. Every spec, plan and session document is read by one strict
// decoder, DecodeStrict.
package chanspec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/cmplxmat"
	"repro/internal/corrmodel"
)

// ErrBadSpec reports an invalid specification.
var ErrBadSpec = errors.New("chanspec: invalid spec")

// Model types.
const (
	// ModelEq22 is the literal N = 3 covariance matrix the paper prints as
	// Eq. (22) — the spectral-correlation example evaluated in Section 6.
	ModelEq22 = "eq22"
	// ModelIdentity is the N×N identity covariance (uncorrelated envelopes).
	ModelIdentity = "identity"
	// ModelExplicit supplies the covariance matrix entry by entry, each
	// complex value as a [re, im] pair (bare numbers are accepted as reals).
	ModelExplicit = "explicit"
	// ModelExponential is ρ^|k−j| with an optional per-step phase rotation.
	ModelExponential = "exponential"
	// ModelConstant gives every distinct pair the same real correlation ρ;
	// ρ < −1/(N−1) yields an indefinite matrix, the paper's E6 stress case.
	ModelConstant = "constant"
	// ModelSpectral is the Jakes spectral model of Section 2 (Eq. (3)–(4))
	// over N carriers at uniform spacing with τ_{k,j} = |k−j|·DelayStepS.
	ModelSpectral = "spectral"
	// ModelSpatial is the Salz–Winters spatial model of Section 3
	// (Eq. (5)–(7)) for a uniform linear array.
	ModelSpatial = "spatial"
)

// Model selects and parameterizes a correlation model. Type selects the
// model; the other fields are read per type as documented on the Model*
// constants and in docs/scenarios.md.
//
// Every exported field must be folded into Canonical: the encoding is the
// setup-cache content address, and a field the hash misses aliases distinct
// channels. fadinglint's canonfields analyzer enforces this at compile time.
//
// fadinglint:canon=Canonical
type Model struct {
	Type string `json:"type"`
	// N is the number of envelopes (identity, exponential, constant,
	// spectral, spatial). Eq22 is fixed at 3; explicit infers N from the
	// covariance rows.
	N int `json:"n,omitempty"`
	// Power is the common Gaussian power σ²; zero selects 1.
	Power float64 `json:"power,omitempty"`
	// Rho is the correlation magnitude of the exponential and constant
	// models.
	Rho float64 `json:"rho,omitempty"`
	// PhaseRad rotates each adjacent exponential pair, producing complex
	// covariances.
	PhaseRad float64 `json:"phase_rad,omitempty"`
	// Covariance is the explicit model's matrix, row by row.
	Covariance [][]Complex `json:"covariance,omitempty"`
	// CarrierSpacingHz, MaxDopplerHz, RMSDelaySpreadS, DelayStepS are the
	// spectral model parameters: N carriers at uniform spacing, pairwise
	// arrival delays τ_{k,j} = |k−j|·DelayStepS.
	CarrierSpacingHz float64 `json:"carrier_spacing_hz,omitempty"`
	MaxDopplerHz     float64 `json:"max_doppler_hz,omitempty"`
	RMSDelaySpreadS  float64 `json:"rms_delay_spread_s,omitempty"`
	DelayStepS       float64 `json:"delay_step_s,omitempty"`
	// SpacingWavelengths, AngularSpreadRad, MeanAngleRad are the spatial
	// model parameters (D/λ, Δ, Φ).
	SpacingWavelengths float64 `json:"spacing_wavelengths,omitempty"`
	AngularSpreadRad   float64 `json:"angular_spread_rad,omitempty"`
	MeanAngleRad       float64 `json:"mean_angle_rad,omitempty"`
	// Fading selects the envelope distribution layered on the correlated
	// Gaussian engine ("rayleigh" default, "rician", "nakagami_m", "suzuki",
	// "nonstationary_doppler"); Params carries its parameters. See the
	// Fading* constants and docs/models.md.
	Fading string        `json:"fading,omitempty"`
	Params *FadingParams `json:"params,omitempty"`
}

// Complex is a complex128 that marshals as the two-element JSON array
// [re, im]; bare JSON numbers are accepted as purely real values.
type Complex complex128

// MarshalJSON implements json.Marshaler.
func (c Complex) MarshalJSON() ([]byte, error) {
	return json.Marshal([2]float64{real(complex128(c)), imag(complex128(c))})
}

// UnmarshalJSON implements json.Unmarshaler.
func (c *Complex) UnmarshalJSON(b []byte) error {
	var pair [2]float64
	if err := json.Unmarshal(b, &pair); err == nil {
		*c = Complex(complex(pair[0], pair[1]))
		return nil
	}
	var re float64
	if err := json.Unmarshal(b, &re); err == nil {
		*c = Complex(complex(re, 0))
		return nil
	}
	return fmt.Errorf("chanspec: complex value must be [re, im] or a number, got %s: %w", b, ErrBadSpec)
}

// Canonical returns the model's canonical JSON encoding: fixed field order,
// zero fields omitted, parameters the model type ignores dropped, and
// defaults resolved (Power 0 reads as 1, eq22's fixed N as omitted). Two
// valid models describing the same channel encode to the same bytes, which
// makes the encoding a content address — the fadingd setup cache hashes it
// to share generation state across sessions with equal specs. Models that
// fail Validate are encoded raw.
func (m *Model) Canonical() []byte {
	c := m.Canonicalize()
	// Model contains only marshal-safe fields, so encoding cannot fail.
	b, _ := json.Marshal(&c)
	return b
}

// Canonicalize returns the model's canonical value: the Model that Canonical
// marshals. It is idempotent — Canonicalize of a canonical model is itself —
// so round-tripping a canonical model through JSON and back yields the same
// content address. fadingd session tokens embed specs in this form, which is
// what lets two replicas that have never spoken agree on a spec's identity.
func (m *Model) Canonicalize() Model {
	c := Model{Type: m.Type, N: m.N, Power: m.Power}
	if c.Power == 0 {
		c.Power = 1
	}
	switch m.Type {
	case ModelEq22:
		// N is fixed at 3 whether spelled out or omitted, and the printed
		// matrix ignores Power.
		c.N, c.Power = 0, 0
	case ModelIdentity:
	case ModelExplicit:
		// N is inferred from the rows and Power is ignored.
		c.N, c.Power = 0, 0
		c.Covariance = m.Covariance
	case ModelExponential:
		c.Rho, c.PhaseRad = m.Rho, m.PhaseRad
	case ModelConstant:
		c.Rho = m.Rho
	case ModelSpectral:
		c.CarrierSpacingHz, c.MaxDopplerHz = m.CarrierSpacingHz, m.MaxDopplerHz
		c.RMSDelaySpreadS, c.DelayStepS = m.RMSDelaySpreadS, m.DelayStepS
	case ModelSpatial:
		c.SpacingWavelengths = m.SpacingWavelengths
		c.AngularSpreadRad, c.MeanAngleRad = m.AngularSpreadRad, m.MeanAngleRad
	default:
		c = *m
	}
	c.Fading, c.Params = canonicalFading(m.Fading, m.Params)
	return c
}

// Validate checks the model for structural consistency without touching any
// random stream.
func (m *Model) Validate() error {
	switch m.Type {
	case ModelEq22:
		if m.N != 0 && m.N != 3 {
			return fmt.Errorf("eq22 model is fixed at N = 3, got n = %d: %w", m.N, ErrBadSpec)
		}
	case ModelIdentity, ModelExponential, ModelConstant, ModelSpectral, ModelSpatial:
		if m.N <= 0 {
			return fmt.Errorf("model %q needs n > 0: %w", m.Type, ErrBadSpec)
		}
	case ModelExplicit:
		if len(m.Covariance) == 0 {
			return fmt.Errorf("explicit model needs a covariance matrix: %w", ErrBadSpec)
		}
		for i, row := range m.Covariance {
			if len(row) != len(m.Covariance) {
				return fmt.Errorf("explicit covariance row %d has %d entries, want %d: %w",
					i, len(row), len(m.Covariance), ErrBadSpec)
			}
		}
	case "":
		return fmt.Errorf("model has no type: %w", ErrBadSpec)
	default:
		return fmt.Errorf("unknown model type %q: %w", m.Type, ErrBadSpec)
	}
	return ValidateFading(m.Fading, m.Params)
}

// Eq22Covariance returns the paper's Eq. (22) covariance matrix: three
// carriers 200 kHz apart with millisecond arrival delays in a 50 Hz Doppler,
// 1 μs delay-spread channel (Section 6).
func Eq22Covariance() *cmplxmat.Matrix {
	return cmplxmat.MustFromRows([][]complex128{
		{1, 0.3782 + 0.4753i, 0.0878 + 0.2207i},
		{0.3782 - 0.4753i, 1, 0.3063 + 0.3849i},
		{0.0878 - 0.2207i, 0.3063 - 0.3849i, 1},
	})
}

// Build assembles the covariance matrix the model describes. The matrix is
// the generation target before positive semi-definiteness forcing; it may be
// indefinite on purpose (constant model with strongly negative ρ).
func (m *Model) Build() (*cmplxmat.Matrix, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	power := m.Power
	if power == 0 {
		power = 1
	}
	switch m.Type {
	case ModelEq22:
		return Eq22Covariance(), nil

	case ModelIdentity:
		k := cmplxmat.New(m.N, m.N)
		for i := 0; i < m.N; i++ {
			k.Set(i, i, complex(power, 0))
		}
		return k, nil

	case ModelExplicit:
		rows := make([][]complex128, len(m.Covariance))
		for i, row := range m.Covariance {
			rows[i] = make([]complex128, len(row))
			for j, v := range row {
				rows[i][j] = complex128(v)
			}
		}
		k, err := cmplxmat.FromRows(rows)
		if err != nil {
			return nil, fmt.Errorf("chanspec: explicit covariance: %w", err)
		}
		return k, nil

	case ModelExponential:
		model := &corrmodel.ExponentialModel{N: m.N, Rho: m.Rho, PhaseRad: m.PhaseRad, Power: power}
		res, err := model.Covariance()
		if err != nil {
			return nil, fmt.Errorf("chanspec: %w", err)
		}
		return res.Matrix, nil

	case ModelConstant:
		model := &corrmodel.ConstantModel{N: m.N, Rho: m.Rho, Power: power}
		res, err := model.Covariance()
		if err != nil {
			return nil, fmt.Errorf("chanspec: %w", err)
		}
		return res.Matrix, nil

	case ModelSpectral:
		delays := make([][]float64, m.N)
		for i := range delays {
			delays[i] = make([]float64, m.N)
			for j := range delays[i] {
				delays[i][j] = math.Abs(float64(i-j)) * m.DelayStepS
			}
		}
		model, err := corrmodel.NewUniformSpectral(corrmodel.UniformSpectralParams{
			N:                m.N,
			CarrierSpacingHz: m.CarrierSpacingHz,
			MaxDopplerHz:     m.MaxDopplerHz,
			RMSDelaySpread:   m.RMSDelaySpreadS,
			Power:            power,
			PairDelays:       delays,
		})
		if err != nil {
			return nil, fmt.Errorf("chanspec: %w", err)
		}
		res, err := model.Covariance()
		if err != nil {
			return nil, fmt.Errorf("chanspec: %w", err)
		}
		return res.Matrix, nil

	case ModelSpatial:
		model := &corrmodel.SpatialModel{
			N:                  m.N,
			SpacingWavelengths: m.SpacingWavelengths,
			AngularSpread:      m.AngularSpreadRad,
			MeanAngle:          m.MeanAngleRad,
			Power:              power,
		}
		res, err := model.Covariance()
		if err != nil {
			return nil, fmt.Errorf("chanspec: %w", err)
		}
		return res.Matrix, nil
	}
	return nil, fmt.Errorf("chanspec: unknown model type %q: %w", m.Type, ErrBadSpec)
}
