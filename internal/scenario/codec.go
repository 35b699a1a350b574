// Declarative scenario files: a strict JSON codec for the Scenario type, so
// sessions can be authored, versioned, and exchanged without writing Go. The
// wire format mirrors the in-memory representation field for field —
// name/description, an app roster, and an ordered timeline of
// at/kind/app/pages events — and the codec guarantees a round trip: for any
// scenario the decoder accepts, decode→encode→decode is the identity and the
// encoded bytes are canonical (stable field order, two-space indent, one
// document per file).
//
// Decoding is deliberately strict. Unknown fields, trailing data, and type
// mismatches are all errors — syntax and type errors carry line:column
// positions, unknown-field and trailing-data errors name the offending
// field or token; unknown event kinds are reported with the offending
// timeline index; and every structurally-sound document still has to pass
// Scenario.Validate, so a *Scenario returned by Decode is always runnable.
// Loose inputs that would silently drop a field are exactly how a benchmark
// suite grows unreproducible results, so there is no lenient mode.

package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// scenarioDoc is the JSON wire shape of a Scenario. Source is deliberately
// absent: provenance describes where a document came from, not what the
// session is, so it never round-trips through the file.
type scenarioDoc struct {
	Name        string     `json:"name"`
	Description string     `json:"description,omitempty"`
	Apps        []appDoc   `json:"apps"`
	Timeline    []eventDoc `json:"timeline"`
}

type appDoc struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
}

// eventDoc's At and Kind are pointers so a missing or null field is
// distinguishable from a zero value: an event that omits "at" must be an
// error, not an event silently scheduled at t=0.
type eventDoc struct {
	At   *Fraction `json:"at"`
	Kind *string   `json:"kind"`
	App  string    `json:"app,omitempty"`
	// Pages is an integer field, so "pages": 1.5 is a type error at the
	// field, not a silent truncation. A null or missing value is zero,
	// which Validate rejects on pressure events (the only kind that may
	// carry pages).
	Pages int64 `json:"pages,omitempty"`
}

// kindNames maps the wire spelling of every event kind, in declaration
// order: Kind.String indexes it and ParseKind searches it.
var kindNames = []string{
	"launch", "switchto", "background", "kill", "idle", "pressure",
	"tap", "key", "swipe",
	"faultBinder", "crashService", "killMediaserver", "corruptParcel",
}

// KindNames returns the wire spelling of every event kind ParseKind
// accepts, in declaration order, as a fresh copy. cmd/docscheck uses it to
// hold docs/SCENARIOS.md to the full kind set.
func KindNames() []string {
	return append([]string(nil), kindNames...)
}

// ParseKind resolves the wire spelling of an event kind ("launch",
// "switchto", "background", "kill", "idle", "pressure", "tap", "key",
// "swipe", "faultBinder", "crashService", "killMediaserver",
// "corruptParcel").
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown event kind %q (valid kinds: %s)",
		s, strings.Join(kindNames, ", "))
}

// lineCol resolves a byte offset within data to a 1-based line:column pair,
// so JSON-level errors point at the offending spot of the file.
func lineCol(data []byte, offset int64) (line, col int) {
	if offset > int64(len(data)) {
		offset = int64(len(data))
	}
	line, col = 1, 1
	for _, b := range data[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// Decode parses one JSON scenario document. It is strict: unknown fields,
// trailing data, and type mismatches are errors (syntax and type errors
// report line:column positions; unknown-field and trailing-data errors name
// the field or token), unknown event kinds are reported with their timeline
// index, events must carry non-null "at" and "kind" fields, and the decoded
// scenario must pass Validate. The returned scenario is therefore always
// runnable, and Encode(Decode(data)) re-encodes it canonically. One
// encoding/json behavior is inherited: a duplicate key within one object
// resolves last-value-wins rather than erroring (null values, by contrast,
// are caught — on required fields directly, elsewhere by Validate rejecting
// the zero value).
func Decode(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var doc scenarioDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, jsonError(data, err)
	}
	switch tok, err := dec.Token(); {
	case errors.Is(err, io.EOF):
		// Clean end of document.
	case err != nil:
		// Malformed trailing bytes: surface the real syntax error (with
		// its line:col) rather than a nil token.
		return nil, fmt.Errorf("%v (trailing data after the scenario document)", jsonError(data, err))
	default:
		return nil, fmt.Errorf("scenario document: trailing data after the closing brace (token %v)", tok)
	}
	s := &Scenario{
		Name:        doc.Name,
		Description: doc.Description,
	}
	for _, a := range doc.Apps {
		s.Apps = append(s.Apps, App(a))
	}
	for i, e := range doc.Timeline {
		if e.At == nil {
			return nil, fmt.Errorf("timeline[%d]: missing or null \"at\" field", i)
		}
		if e.Kind == nil {
			return nil, fmt.Errorf("timeline[%d]: missing or null \"kind\" field", i)
		}
		kind, err := ParseKind(*e.Kind)
		if err != nil {
			return nil, fmt.Errorf("timeline[%d]: %v", i, err)
		}
		s.Timeline = append(s.Timeline, Event{At: *e.At, Kind: kind, App: e.App, Pages: e.Pages})
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// jsonError rewrites encoding/json's offset-carrying errors into line:column
// positions within the document.
func jsonError(data []byte, err error) error {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		line, col := lineCol(data, syn.Offset)
		return fmt.Errorf("scenario document: line %d:%d: %v", line, col, syn)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		line, col := lineCol(data, typ.Offset)
		field := typ.Field
		if field == "" {
			field = "document"
		}
		return fmt.Errorf("scenario document: line %d:%d: field %q: cannot decode %s as %s",
			line, col, field, typ.Value, typ.Type)
	}
	return fmt.Errorf("scenario document: %v", err)
}

// Encode renders the scenario as its canonical JSON document: stable field
// order, two-space indent, no HTML escaping, a trailing newline, and
// zero-valued optional fields (app on idle/pressure events, pages elsewhere)
// omitted. Two scenarios are equal exactly when their canonical encodings
// are byte-equal, which is the comparison the conformance harness and the
// fuzz round-trip lean on. The scenario must be valid: Encode refuses to
// produce a document Decode would reject.
func Encode(s *Scenario) ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	doc := scenarioDoc{
		Name:        s.Name,
		Description: s.Description,
	}
	for _, a := range s.Apps {
		doc.Apps = append(doc.Apps, appDoc(a))
	}
	for _, e := range s.Timeline {
		at, kind := e.At, e.Kind.String()
		doc.Timeline = append(doc.Timeline, eventDoc{
			At:    &at,
			Kind:  &kind,
			App:   e.App,
			Pages: e.Pages,
		})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("scenario %s: encode: %v", s.Name, err)
	}
	return buf.Bytes(), nil
}

// FromFile loads and decodes one scenario file. Errors carry the path; the
// returned scenario's Source records the provenance ("file:<basename>") that
// scenario reports surface alongside the run.
func FromFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %v", path, err)
	}
	s.Source = "file:" + filepath.Base(path)
	return s, nil
}

// LoadDir loads every *.json scenario in dir, sorted by filename so the
// resulting plan axis is deterministic. Scenario names must be unique across
// the directory — two files defining the same name would alias in reports
// and summaries.
func LoadDir(dir string) ([]*Scenario, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scenario: %v", err)
	}
	var matches []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			matches = append(matches, filepath.Join(dir, e.Name()))
		}
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("scenario: no *.json scenario files in %s", dir)
	}
	sort.Strings(matches)
	var out []*Scenario
	byName := make(map[string]string, len(matches))
	for _, path := range matches {
		s, err := FromFile(path)
		if err != nil {
			return nil, err
		}
		if prev, ok := byName[s.Name]; ok {
			return nil, fmt.Errorf("scenario: %s: duplicate scenario name %q (already defined by %s)",
				path, s.Name, prev)
		}
		byName[s.Name] = path
		out = append(out, s)
	}
	return out, nil
}
