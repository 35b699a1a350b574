package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer, or one timed
// phase of a fleet worker.
type span struct {
	name       string
	start, end int64 // ns since the recorder's origin
	parent     int   // index of the enclosing span, -1 for none
	op         int   // op (pass, session, sweep) the span belongs to; -1 for none
	pid        int   // OS process that ran the call
}

// recorder keeps every span in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay only a nil check.
type recorder struct {
	mu     sync.Mutex
	origin time.Time
	pid    int
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), pid: os.Getpid()}
}

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, op: op, pid: r.pid})
	return len(r.spans) - 1
}

// end closes a span and returns its duration in ns (0 for a nil recorder).
func (r *recorder) end(id int) int64 {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return now - r.spans[id].start
}

// add records a span another process timed, given in Unix nanoseconds.
func (r *recorder) add(name string, startUnix, endUnix int64, parent, op, pid int) int {
	base := r.origin.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: startUnix - base, end: endUnix - base, parent: parent, op: op, pid: pid})
	return len(r.spans) - 1
}

// selfTimes returns each span's duration minus the part of it covered by
// its child spans. Children may overlap each other (fleet workers run side
// by side), so the covered part is the length of their union, clipped to
// the parent.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerRow is one line of the per-layer table: every span of one name.
type layerRow struct {
	name            string
	count           int
	totalNS, selfNS int64
	durs            []int64 // span durations, sorted
}

func layerTable(spans []span) []layerRow {
	self := selfTimes(spans)
	byName := map[string]*layerRow{}
	var names []string
	for i, s := range spans {
		row := byName[s.name]
		if row == nil {
			row = &layerRow{name: s.name}
			byName[s.name] = row
			names = append(names, s.name)
		}
		d := s.end - s.start
		row.count++
		row.totalNS += d
		row.selfNS += self[i]
		row.durs = append(row.durs, d)
	}
	rows := make([]layerRow, 0, len(names))
	for _, n := range names {
		row := byName[n]
		sort.Slice(row.durs, func(a, b int) bool { return row.durs[a] < row.durs[b] })
		rows = append(rows, *row)
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].selfNS != rows[b].selfNS {
			return rows[a].selfNS > rows[b].selfNS
		}
		return rows[a].name < rows[b].name
	})
	return rows
}

func formatTable(rows []layerRow) string {
	var s strings.Builder
	s.WriteString("perfbench spans (self = duration minus time covered by child spans):\n")
	fmt.Fprintf(&s, "  %-28s %8s %12s %12s %12s %12s\n", "span", "count", "total ms", "self ms", "median ms", "max ms")
	for _, r := range rows {
		fmt.Fprintf(&s, "  %-28s %8d %12.3f %12.3f %12.4f %12.4f\n", r.name, r.count,
			float64(r.totalNS)/1e6, float64(r.selfNS)/1e6, float64(r.durs[len(r.durs)/2])/1e6, float64(r.durs[len(r.durs)-1])/1e6)
	}
	return s.String()
}

// traceEvent is one Chrome Trace Event Format record, which Perfetto and
// chrome://tracing open. Complete events ("X") carry ts and dur in µs.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// chromeTrace renders spans as a Chrome trace: one track per process, the
// benchmark process first.
func chromeTrace(spans []span, mainPID int) traceFile {
	self := selfTimes(spans)
	tf := traceFile{DisplayTimeUnit: "ms"}
	named := map[int]bool{}
	for i, s := range spans {
		if !named[s.pid] {
			named[s.pid] = true
			label := "perfbench"
			if s.pid != mainPID {
				label = fmt.Sprintf("fleet worker %d", s.pid)
			}
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{Name: "process_name", Ph: "M", Pid: s.pid, Tid: 1,
				Args: map[string]any{"name": label}})
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: s.pid, Tid: 1, Args: map[string]any{"op": s.op, "self_us": float64(self[i]) / 1e3},
		})
	}
	return tf
}

// writeTrace writes the run's spans as a Chrome trace and the per-layer
// table beside it, and prints the table.
func (b *bench) writeTrace(layers map[string]float64) error {
	dir := filepath.Join(b.cfg.workdir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed))
	b.rec.mu.Lock()
	spans := append([]span(nil), b.rec.spans...)
	b.rec.mu.Unlock()
	data, err := json.Marshal(chromeTrace(spans, b.rec.pid))
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".trace.json", data, 0o644); err != nil {
		return err
	}
	table := formatTable(layerTable(spans)) + formatMetrics("per-layer", perLayer, layers, nil)
	fmt.Fprint(b.log, table)
	fmt.Fprintf(b.log, "perfbench: wrote %s.trace.json (open in https://ui.perfetto.dev) and %s.layers.txt\n", stem, stem)
	return os.WriteFile(stem+".layers.txt", []byte(table), 0o644)
}
