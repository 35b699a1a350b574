// Package fleet shards a suite plan across worker subprocesses and folds
// their streamed results through a constant-memory aggregator.
//
// The design splits a plan matrix (units × seeds × ablations) into
// fixed-size shards whose geometry depends only on the plan and the shard
// size — never on how many workers execute them. Each worker subprocess
// receives one shard envelope on stdin, runs its specs serially, and streams
// one canonical-JSON result line per spec back over its stdout pipe,
// followed by a trailer that pins the shard's line count and digest. The
// coordinator folds lines into running aggregates and a multiset
// fingerprint as they arrive, so memory stays O(shards in flight), not
// O(results) — a million-session sweep never materializes a million results.
//
// Determinism contract: the final report — aggregates and fingerprint — is
// bit-identical across any worker count, across a serial in-process run,
// and across a checkpoint-resumed run, because (1) the fingerprint is a
// commutative multiset hash over the result lines, (2) every line embeds
// its plan index so the multiset pins the full ordered stream, and (3)
// per-shard float partials merge into the report strictly in shard order,
// reproducing the serial fold tree rounding step for rounding step.
//
// The package is engine-agnostic: the run config travels as opaque JSON and
// a RunFunc supplied by the caller executes each spec, so fleet depends on
// the suite geometry and dispatch loop (suite.Each) and the scenario codec
// but not on the core simulator. Its aggregator is the one seed-fold: a
// suite sweep's summary is a RunSerial replay of its outputs.
package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"agave/internal/scenario"
	"agave/internal/suite"
)

// Metric is one named sample on a result line. Lines carry metrics as a
// name-sorted slice, not a map: the wire order is canonical, the
// aggregator's fold walks it with a binary search instead of a map range,
// and decoding reuses slice capacity so the steady-state fold is
// allocation-free.
type Metric struct {
	Name  string  `json:"k"`
	Value float64 `json:"v"`
}

// Line is one run result on the wire: a single newline-terminated canonical
// JSON object. Index is the spec's plan position — embedding it makes the
// multiset of lines determine the full ordered result stream, which is what
// lets the fingerprint ignore arrival order. Fingerprint is the run's
// stats-collector fingerprint; Metrics are sorted by name.
type Line struct {
	Index       int      `json:"index"`
	Unit        string   `json:"unit"`
	Seed        uint64   `json:"seed"`
	Ablation    string   `json:"ablation"`
	Fingerprint uint64   `json:"fingerprint"`
	Metrics     []Metric `json:"metrics"`
}

// SortMetrics puts the line's metrics into canonical name order.
func (l *Line) SortMetrics() {
	sort.Slice(l.Metrics, func(i, j int) bool { return l.Metrics[i].Name < l.Metrics[j].Name })
}

// Encode renders the line as its canonical wire bytes (no trailing newline).
func (l *Line) Encode() ([]byte, error) {
	return json.Marshal(l)
}

// DecodeLine parses a wire line into dst, zeroing it first so a reused dst
// never leaks fields from the previous line; the Metrics slice capacity is
// retained across calls.
func DecodeLine(data []byte, dst *Line) error {
	*dst = Line{Metrics: dst.Metrics[:0]}
	return json.Unmarshal(data, dst)
}

// WireAblation is an Ablation in wire form.
type WireAblation struct {
	Name      string `json:"name"`
	NoJIT     bool   `json:"nojit,omitempty"`
	DirtyRect bool   `json:"dirtyrect,omitempty"`
}

// WirePlan is a suite plan in wire form: every scenario definition —
// bundled, file-loaded or generated — is carried as its canonical
// scenario-codec encoding, so the plan survives the subprocess boundary
// bit-exactly and its hash commits to what each session runs.
type WirePlan struct {
	Benchmarks   []string          `json:"benchmarks,omitempty"`
	ScenarioDocs []json.RawMessage `json:"scenario_docs,omitempty"`
	Seeds        []uint64          `json:"seeds,omitempty"`
	Ablations    []WireAblation    `json:"ablations,omitempty"`
}

// NewWirePlan converts a suite plan to wire form.
func NewWirePlan(p suite.Plan) (WirePlan, error) {
	wp := WirePlan{Benchmarks: p.Benchmarks, Seeds: p.Seeds}
	for _, sc := range p.ScenarioSet {
		doc, err := scenario.Encode(sc)
		if err != nil {
			return WirePlan{}, fmt.Errorf("fleet: encode scenario %q: %w", sc.Name, err)
		}
		wp.ScenarioDocs = append(wp.ScenarioDocs, doc)
	}
	for _, a := range p.Ablations {
		wp.Ablations = append(wp.Ablations, WireAblation{
			Name:      a.Name,
			NoJIT:     a.DisableJIT,
			DirtyRect: a.DirtyRectComposition,
		})
	}
	return wp, nil
}

// SuitePlan converts the wire plan back to a suite plan.
func (wp WirePlan) SuitePlan() (suite.Plan, error) {
	p := suite.Plan{Benchmarks: wp.Benchmarks, Seeds: wp.Seeds}
	for i, doc := range wp.ScenarioDocs {
		sc, err := scenario.Decode(doc)
		if err != nil {
			return suite.Plan{}, fmt.Errorf("fleet: decode scenario doc %d: %w", i, err)
		}
		p.ScenarioSet = append(p.ScenarioSet, sc)
	}
	for _, a := range wp.Ablations {
		p.Ablations = append(p.Ablations, suite.Ablation{
			Name:                 a.Name,
			DisableJIT:           a.NoJIT,
			DirtyRectComposition: a.DirtyRect,
		})
	}
	return p, nil
}

// Spec is the full fleet job description: the engine config (opaque to this
// package), the plan, and the shard size. Its hash names the job — workers
// refuse envelopes whose recomputed hash disagrees, and checkpoints refuse
// resumption under a different hash.
type Spec struct {
	Config    json.RawMessage `json:"config"`
	Plan      WirePlan        `json:"plan"`
	ShardSize int             `json:"shard_size"`
}

// Hash is the spec's identity: the hex SHA-256 of its canonical JSON
// encoding. json.Marshal fixes struct field order and compacts RawMessage,
// so equal specs hash equally on both sides of the process boundary.
func (s *Spec) Hash() (string, error) {
	data, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("fleet: hash spec: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
