package chanspec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DecodeStrict decodes exactly one JSON value from r into v, the rule every
// spec, plan and session document is read by: an unknown object field is an
// error, so a typo fails loudly instead of silently selecting a default, and
// so is any data after the value, which would otherwise be dropped unread.
// Callers wrap the error with their own package's sentinel.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the JSON document")
	}
	return nil
}

// LoadFile reads one document file and parses it with parse; a parse error
// names the file.
func LoadFile[T any](path string, parse func([]byte) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := parse(data)
	if err != nil {
		return v, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// LoadDir loads every *.json document in dir (non-recursive) with parse and
// returns them sorted by name, so every caller sees the same deterministic
// order. Two documents with the same name are rejected (ErrBadSpec).
func LoadDir[T any](dir string, parse func([]byte) (T, error), name func(T) string) ([]T, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var docs []T
	seen := map[string]string{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		d, err := LoadFile(path, parse)
		if err != nil {
			return nil, err
		}
		if prev, dup := seen[name(d)]; dup {
			return nil, fmt.Errorf("duplicate name %q in %s and %s: %w", name(d), prev, path, ErrBadSpec)
		}
		seen[name(d)] = path
		docs = append(docs, d)
	}
	sort.Slice(docs, func(i, j int) bool { return name(docs[i]) < name(docs[j]) })
	return docs, nil
}
