package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Scenario specs as files
//
// A spec serializes to JSON (the json tags on Spec/Topology/Policy/
// Workload are the schema; durations are Go duration strings like
// "2ms"), so runs are shareable without recompiling:
//
//	occamy-scenario export incast-storm-256 > storm.json
//	$EDITOR storm.json
//	occamy-scenario run ./storm.json
//
// Parsing is strict — unknown fields are rejected, not ignored, so a
// typo'd field name fails loudly instead of silently running a
// different scenario — and every loaded spec is validated with defaults
// applied before the builder sees it.

// ParseSpec decodes and validates a JSON spec. The returned spec is as
// written (defaults are resolved inside Run), so Parse∘Save is the
// identity on specs that came from files.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if s.Name == "" {
		return Spec{}, fmt.Errorf("scenario: spec has no name")
	}
	if _, err := ParseScale(string(s.Scale)); err != nil {
		return Spec{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := s.ApplyScale().WithDefaults().Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeStrict parses data into v the way every file format here is
// read: unknown fields are errors, and so is anything but whitespace
// after the one JSON value — a malformed file, not an extra document.
// dec.More cannot make that check: it reports false on a stray closing
// brace or bracket.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// LoadSpec reads and validates a JSON spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return s, nil
}

// Marshal renders the spec as indented JSON, zero fields omitted — the
// export format, editable as a template.
func (s Spec) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: marshaling spec %q: %w", s.Name, err)
	}
	return append(data, '\n'), nil
}

// Save writes the spec as a JSON file.
func (s Spec) Save(path string) error {
	data, err := s.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
