package scenario

import (
	"bytes"
	"fmt"

	"repro/internal/chanspec"
)

// Parse decodes one spec from JSON. Decoding is strict
// (chanspec.DecodeStrict): an unknown field fails loudly instead of silently
// disabling a gate, and so does data after the spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := chanspec.DecodeStrict(bytes.NewReader(data), &s); err != nil {
		return nil, fmt.Errorf("scenario: %w: %w", ErrBadSpec, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadDir loads every *.json spec in dir (non-recursive), sorted by scenario
// name so every caller sees the same deterministic order. Duplicate names
// are rejected.
func LoadDir(dir string) ([]*Spec, error) {
	return chanspec.LoadDir(dir, Parse, func(s *Spec) string { return s.Name })
}
