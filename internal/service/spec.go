// Package service implements fadingd, the streaming channel-simulation
// server: clients POST a channel spec (the shared chanspec correlation-model
// vocabulary plus real-time generation parameters), receive a session ID,
// and stream blocks of correlated Rayleigh fading envelopes as NDJSON or
// compact binary frames. Streams are deterministic and resumable — block k
// of a session is a pure function of the spec, so ?from=k resumption and
// parallel range requests reproduce the exact bytes of a from-0 stream — and
// each stream handler generates its own blocks through its own Cursor, so one
// slow consumer holds up only its own stream. See docs/service.md for the
// wire protocol.
package service

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/chanspec"
)

// ErrBadSpec reports an invalid session specification (the shared chanspec
// sentinel, so model errors match the same errors.Is target).
var ErrBadSpec = chanspec.ErrBadSpec

// Limits bounds the per-session resources a spec may request; the zero value
// of any field selects its default. They exist so one client cannot park an
// arbitrarily large generator in the session table.
type Limits struct {
	// MaxEnvelopes bounds the model's N. Default 64.
	MaxEnvelopes int
	// MaxBlocks bounds a session's total block count. Default 1 << 20.
	MaxBlocks int
	// MaxIDFTPoints bounds the per-block sample count M. Default 1 << 16.
	MaxIDFTPoints int
}

func (l Limits) withDefaults() Limits {
	if l.MaxEnvelopes == 0 {
		l.MaxEnvelopes = 64
	}
	if l.MaxBlocks == 0 {
		l.MaxBlocks = 1 << 20
	}
	if l.MaxIDFTPoints == 0 {
		l.MaxIDFTPoints = 1 << 16
	}
	return l
}

// SessionSpec is the body of POST /v1/sessions: one channel realization.
// The correlation model is the same vocabulary scenario files use
// (eq22/identity/explicit/exponential/constant/spectral/spatial, see
// internal/chanspec), so a channel calibrated in scenarios/ can be served
// verbatim.
//
// Every exported field that shapes the generated stream must be folded into
// setupKey (the setup-cache content address); the canonfields analyzer
// enforces this, so adding a spec field without hashing it fails the lint
// run instead of aliasing distinct channels in the cache.
//
// fadinglint:canon=setupKey
type SessionSpec struct {
	// Model selects and parameterizes the correlation model.
	Model chanspec.Model `json:"model"`
	// Method selects the generation backend realizing the model's covariance
	// ("generalized" default, or one of the conventional methods — see
	// docs/methods.md). A method that rejects the model's covariance fails
	// session creation with its documented error class.
	Method string `json:"method,omitempty"`
	// Seed fixes the session's random streams: equal specs produce
	// byte-identical streams, on any server.
	Seed int64 `json:"seed"`
	// Blocks is the total length of the session's stream in blocks.
	//lint:allow canonfields Blocks bounds the served range, not the stream; sessions of different lengths share one setup artifact
	Blocks int `json:"blocks"`
	// IDFTPoints is the block length M in samples, a power of two; zero
	// selects chanspec.DefaultIDFTPoints, the paper's 4096.
	IDFTPoints int `json:"idft_points,omitempty"`
	// NormalizedDoppler is fm = Fm/Fs in (0, 0.5); zero selects
	// chanspec.DefaultNormalizedDoppler, the paper's 0.05.
	NormalizedDoppler float64 `json:"normalized_doppler,omitempty"`
	// InputVariance is σ²_orig of the Doppler filter input; zero selects the
	// paper's 1/2.
	InputVariance float64 `json:"input_variance,omitempty"`
}

// ParseSpec decodes one session spec. Decoding is strict
// (chanspec.DecodeStrict): an unknown field fails loudly instead of silently
// selecting a default channel, and so does a second document in the body.
func ParseSpec(r io.Reader) (*SessionSpec, error) {
	var s SessionSpec
	if err := chanspec.DecodeStrict(r, &s); err != nil {
		return nil, fmt.Errorf("service: %w: %w", ErrBadSpec, err)
	}
	return &s, nil
}

// Validate checks the spec against the limits without building a generator.
func (s *SessionSpec) Validate(limits Limits) error {
	limits = limits.withDefaults()
	if err := s.Model.Validate(); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if err := chanspec.ValidateMethod(s.Method); err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if n := s.modelN(); n > limits.MaxEnvelopes {
		return fmt.Errorf("service: model has %d envelopes, limit %d: %w", n, limits.MaxEnvelopes, ErrBadSpec)
	}
	if s.Blocks <= 0 {
		return fmt.Errorf("service: session needs blocks > 0: %w", ErrBadSpec)
	}
	if s.Blocks > limits.MaxBlocks {
		return fmt.Errorf("service: %d blocks exceeds limit %d: %w", s.Blocks, limits.MaxBlocks, ErrBadSpec)
	}
	if m := s.blockLength(); m > limits.MaxIDFTPoints {
		return fmt.Errorf("service: %d IDFT points exceeds limit %d: %w", m, limits.MaxIDFTPoints, ErrBadSpec)
	}
	if fm := s.NormalizedDoppler; fm != 0 && (fm <= 0 || fm >= 0.5) {
		return fmt.Errorf("service: normalized Doppler %g outside (0, 0.5): %w", fm, ErrBadSpec)
	}
	if chanspec.NormalizeFading(s.Model.Fading) == chanspec.FadingNonstationaryDoppler && s.NormalizedDoppler != 0 {
		return fmt.Errorf("service: fading %q carries per-segment Doppler; normalized_doppler must be omitted: %w",
			s.Model.Fading, ErrBadSpec)
	}
	return nil
}

// modelN returns the envelope count the model describes.
func (s *SessionSpec) modelN() int {
	if s.Model.Type == chanspec.ModelEq22 {
		return 3
	}
	if s.Model.Type == chanspec.ModelExplicit {
		return len(s.Model.Covariance)
	}
	return s.Model.N
}

// blockLength returns the block length in effect.
func (s *SessionSpec) blockLength() int { return cmp.Or(s.IDFTPoints, chanspec.DefaultIDFTPoints) }

// doppler returns the normalized Doppler the filter runs at, as the scenario
// engine resolves it (see chanspec.FilterDoppler).
func (s *SessionSpec) doppler() float64 {
	return chanspec.FilterDoppler(s.Model.Fading, s.NormalizedDoppler)
}

// setupKey returns the spec's content address: a hash over every field that
// determines the session's generation state (model, method, seed, block
// length, Doppler, input variance — with defaults resolved, so an omitted
// field and its explicit default collide on purpose). Blocks is deliberately
// excluded: it only bounds the served range, not the stream, so sessions of
// different lengths over the same channel share one setup artifact.
func (s *SessionSpec) setupKey() string {
	h := sha256.New()
	h.Write(s.Model.Canonical())
	h.Write([]byte{0})
	io.WriteString(h, chanspec.NormalizeMethod(s.Method))
	var tail [32]byte
	binary.LittleEndian.PutUint64(tail[0:], uint64(s.Seed))
	binary.LittleEndian.PutUint64(tail[8:], uint64(s.blockLength()))
	binary.LittleEndian.PutUint64(tail[16:], math.Float64bits(s.doppler()))
	binary.LittleEndian.PutUint64(tail[24:], math.Float64bits(s.inputVariance()))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))
}

// inputVariance returns the Doppler filter input variance in effect (default
// the paper's 1/2, matching the engine's own default).
func (s *SessionSpec) inputVariance() float64 {
	if s.InputVariance != 0 {
		return s.InputVariance
	}
	return 0.5
}

// canonical returns the spec's canonical JSON encoding (stable field order),
// used by session info responses.
func (s *SessionSpec) canonical() json.RawMessage {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	// Encoding a validated spec cannot fail.
	_ = enc.Encode(s)
	return bytes.TrimSpace(buf.Bytes())
}

// tokenSpec returns the spec as embedded in session tokens: canonical JSON
// with the Model itself canonicalized (defaults resolved, ignored parameters
// dropped), so equivalent specs mint byte-identical token payloads and every
// replica derives the same setup-cache address from them.
func (s *SessionSpec) tokenSpec() []byte {
	c := *s
	c.Model = s.Model.Canonicalize()
	return c.canonical()
}
