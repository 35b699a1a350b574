package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEncodeDecodeRoundTripsEveryBundledScenario is the codec's core
// contract: for every bundled scenario, decode(encode(s)) reproduces the
// scenario exactly (modulo Source, which is provenance, not content) and the
// re-encoded bytes are identical — the canonical form is a fixed point.
func TestEncodeDecodeRoundTripsEveryBundledScenario(t *testing.T) {
	for _, s := range Library() {
		doc, err := Encode(s)
		if err != nil {
			t.Fatalf("%s: encode: %v", s.Name, err)
		}
		got, err := Decode(doc)
		if err != nil {
			t.Fatalf("%s: decode of own encoding: %v", s.Name, err)
		}
		want := *s
		want.Source = got.Source // provenance is not part of the document
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: decode(encode(s)) != s:\ngot  %+v\nwant %+v", s.Name, got, &want)
		}
		doc2, err := Encode(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", s.Name, err)
		}
		if !bytes.Equal(doc, doc2) {
			t.Errorf("%s: canonical encoding is not a fixed point:\n%s\nvs\n%s", s.Name, doc, doc2)
		}
	}
}

// TestDecodeAcceptsHandWrittenDocument checks a document written the way a
// user would write it — optional fields omitted, no particular formatting.
func TestDecodeAcceptsHandWrittenDocument(t *testing.T) {
	doc := `{
		"name": "night-shift",
		"apps": [
			{"name": "reader", "workload": "coolreader.epub.view"},
			{"name": "radio", "workload": "music.mp3.view.bkg"}
		],
		"timeline": [
			{"at": 0, "kind": "launch", "app": "radio"},
			{"at": 100, "kind": "launch", "app": "reader"},
			{"at": 600, "kind": "idle"},
			{"at": 800, "kind": "pressure", "pages": 20000},
			{"at": 950, "kind": "kill", "app": "reader"}
		]
	}`
	s, err := Decode([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "night-shift" || len(s.Apps) != 2 || len(s.Timeline) != 5 {
		t.Fatalf("decoded shape wrong: %+v", s)
	}
	if s.Timeline[3].Kind != Pressure || s.Timeline[3].Pages != 20000 {
		t.Fatalf("pressure event decoded wrong: %+v", s.Timeline[3])
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("decoded scenario does not validate: %v", err)
	}
}

// TestDecodeRejectsIllFormedDocuments is the parser's negative-path table:
// each malformed document must be rejected with the specific, greppable
// error text the CLI surfaces. The same cases are driven through `agave
// scenario -file` in cmd/agave's tests.
func TestDecodeRejectsIllFormedDocuments(t *testing.T) {
	valid := func(mutate func(s string) string) string {
		base := `{
  "name": "t",
  "apps": [
    {"name": "a", "workload": "countdown.main"},
    {"name": "b", "workload": "jetboy.main"}
  ],
  "timeline": [
    {"at": 0, "kind": "launch", "app": "a"},
    {"at": 500, "kind": "launch", "app": "b"}
  ]
}`
		if mutate != nil {
			return mutate(base)
		}
		return base
	}
	cases := []struct {
		name    string
		doc     string
		wantErr string
	}{
		{
			"unknown event kind",
			valid(func(s string) string {
				return strings.Replace(s, `"kind": "launch", "app": "b"`, `"kind": "teleport", "app": "b"`, 1)
			}),
			`timeline[1]: unknown event kind "teleport" (valid kinds: launch, switchto, background, kill, idle, pressure, tap, key, swipe, faultBinder, crashService, killMediaserver, corruptParcel)`,
		},
		{
			"event on undeclared app",
			valid(func(s string) string {
				return strings.Replace(s, `"kind": "launch", "app": "b"`, `"kind": "launch", "app": "ghost"`, 1)
			}),
			`targets undeclared app`,
		},
		{
			"at above 1000",
			valid(func(s string) string { return strings.Replace(s, `"at": 500`, `"at": 1500`, 1) }),
			`outside [0,1000]`,
		},
		{
			"at negative",
			valid(func(s string) string { return strings.Replace(s, `"at": 0`, `"at": -3`, 1) }),
			`outside [0,1000]`,
		},
		{
			"duplicate app names",
			valid(func(s string) string {
				return strings.Replace(s, `{"name": "b", "workload": "jetboy.main"}`, `{"name": "a", "workload": "jetboy.main"}`, 1)
			}),
			`duplicate app "a"`,
		},
		{
			"empty timeline",
			`{"name": "t", "apps": [{"name": "a", "workload": "countdown.main"}], "timeline": []}`,
			`empty timeline`,
		},
		{
			"unknown top-level field",
			valid(func(s string) string { return strings.Replace(s, `"name": "t",`, `"name": "t", "duration": 99,`, 1) }),
			`unknown field "duration"`,
		},
		{
			"unknown event field",
			valid(func(s string) string { return strings.Replace(s, `"at": 0,`, `"at": 0, "delay": 3,`, 1) }),
			`unknown field "delay"`,
		},
		{
			"type mismatch carries line and field",
			"{\n  \"name\": \"t\",\n  \"apps\": [{\"name\": \"a\", \"workload\": \"countdown.main\"}],\n  \"timeline\": [{\"at\": \"zero\", \"kind\": \"launch\", \"app\": \"a\"}]\n}",
			`line 4`,
		},
		{
			"syntax error carries line",
			"{\n  \"name\": \"t\",,\n}",
			`line 2`,
		},
		{
			"trailing data",
			valid(nil) + "{}",
			`trailing data`,
		},
		{
			"unknown workload",
			valid(func(s string) string { return strings.Replace(s, "jetboy.main", "no.such.workload", 1) }),
			`unknown workload "no.such.workload"`,
		},
		{
			"empty document",
			`{}`,
			`empty name`,
		},
		{
			"null at",
			valid(func(s string) string { return strings.Replace(s, `"at": 500`, `"at": null`, 1) }),
			`timeline[1]: missing or null "at" field`,
		},
		{
			"missing at",
			valid(func(s string) string { return strings.Replace(s, `{"at": 500, `, `{`, 1) }),
			`timeline[1]: missing or null "at" field`,
		},
		{
			"null kind",
			valid(func(s string) string {
				return strings.Replace(s, `"kind": "launch", "app": "b"`, `"kind": null, "app": "b"`, 1)
			}),
			`timeline[1]: missing or null "kind" field`,
		},
		{
			"missing kind",
			valid(func(s string) string { return strings.Replace(s, `"kind": "launch", "app": "b"`, `"app": "b"`, 1) }),
			`timeline[1]: missing or null "kind" field`,
		},
	}
	for _, tc := range cases {
		_, err := Decode([]byte(tc.doc))
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestDecodeNeverReturnsInvalidScenario: anything Decode accepts must pass
// Validate — the engine's precondition is established at the parse boundary.
func TestDecodeNeverReturnsInvalidScenario(t *testing.T) {
	for _, s := range Library() {
		doc, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%s: Decode returned an invalid scenario: %v", s.Name, err)
		}
	}
}

// TestEncodeRefusesInvalidScenario: the exporter cannot produce a document
// the importer would reject.
func TestEncodeRefusesInvalidScenario(t *testing.T) {
	if _, err := Encode(&Scenario{Name: "broken"}); err == nil {
		t.Fatal("Encode accepted a scenario with no apps")
	}
}

// TestFromFileSetsProvenanceAndWrapsErrors pins the file loader: Source
// records "file:<basename>", and errors carry the path.
func TestFromFileSetsProvenanceAndWrapsErrors(t *testing.T) {
	dir := t.TempDir()
	doc, err := Encode(Library()[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "session.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := FromFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Source != "file:session.json" {
		t.Fatalf("Source = %q, want file:session.json", s.Source)
	}
	if _, err := FromFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file loaded")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": }`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromFile(bad); err == nil || !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("decode error does not carry the path: %v", err)
	}
}

// TestLoadDirSortsAndRejectsDuplicates: directory loading is deterministic
// (filename order) and scenario names must be unique across the directory.
func TestLoadDirSortsAndRejectsDuplicates(t *testing.T) {
	dir := t.TempDir()
	lib := Library()
	// Write out of name order to prove the sort is by filename.
	for i, name := range []string{"b.json", "a.json"} {
		doc, err := Encode(lib[i])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), doc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != lib[1].Name || got[1].Name != lib[0].Name {
		t.Fatalf("LoadDir order wrong: %v", []string{got[0].Name, got[1].Name})
	}
	// A third file reusing an existing scenario name is rejected.
	doc, err := Encode(lib[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "c.json"), doc, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate scenario name") {
		t.Fatalf("duplicate scenario name accepted: %v", err)
	}
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
}

// TestParseKindInvertsString: every Kind's wire spelling parses back to
// itself, a Kind past the last one prints its number, and garbage is
// rejected.
func TestParseKindInvertsString(t *testing.T) {
	for k := Launch; k <= CorruptParcel; k++ {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if got := Kind(len(kindNames)).String(); got != "Kind(13)" {
		t.Errorf("Kind(len(kindNames)).String() = %q, want Kind(13)", got)
	}
	if _, err := ParseKind("Launch"); err == nil {
		t.Error("ParseKind is case-insensitive; the wire format is lowercase only")
	}
}
