package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/sim"
	"agave/internal/stats"
	"agave/internal/suite"
)

// fakeResult builds a result with a hand-crafted counter matrix.
func fakeResult(name string, isSpec bool, fill func(c *stats.Collector)) *core.Result {
	c := stats.NewCollector()
	fill(c)
	return &core.Result{
		Benchmark: name, IsSPEC: isSpec, Stats: c,
		Processes: 20, Threads: 60,
		CodeRegions: c.RegionCount(stats.IFetch),
		DataRegions: c.RegionCount(stats.DataKinds...),
		Duration:    sim.Second,
	}
}

func twoResults() []*core.Result {
	android := fakeResult("frozenbubble.main", false, func(c *stats.Collector) {
		p := c.Proc("benchmark")
		ss := c.Proc("system_server")
		main := c.Thread("main")
		sf := c.Thread("SurfaceFlinger")
		c.Add(p, main, c.Region("mspace"), stats.IFetch, 60)
		c.Add(p, main, c.Region("libdvm.so"), stats.IFetch, 30)
		c.Add(p, main, c.Region("libweird.so"), stats.IFetch, 10)
		c.Add(ss, sf, c.Region("gralloc-buffer"), stats.DataRead, 50)
		c.Add(ss, sf, c.Region("fb0 (frame buffer)"), stats.DataWrite, 30)
		c.Add(p, main, c.Region("dalvik-heap"), stats.DataRead, 20)
	})
	spec := fakeResult("401.bzip2", true, func(c *stats.Collector) {
		p := c.Proc("benchmark")
		main := c.Thread("main")
		c.Add(p, main, c.Region("app binary"), stats.IFetch, 95)
		c.Add(p, main, c.Region("OS kernel"), stats.IFetch, 5)
		c.Add(p, main, c.Region("heap"), stats.DataRead, 80)
		c.Add(p, main, c.Region("stack"), stats.DataWrite, 20)
	})
	return []*core.Result{android, spec}
}

func TestFig1Fold(t *testing.T) {
	fig := Fig1(twoResults())
	if fig.ID != "fig1" || len(fig.Series) != 2 {
		t.Fatalf("fig = %+v", fig)
	}
	b := fig.Series[0].Breakdown
	if b.Share("mspace") != 0.6 || b.Share("libdvm.so") != 0.3 {
		t.Fatalf("fold shares wrong: %+v", b.Rows)
	}
	// libweird.so is not in the legend: folded into "other (1 items)".
	last := b.Rows[len(b.Rows)-1]
	if !strings.HasPrefix(last.Name, "other (") || last.Count != 10 {
		t.Fatalf("other row = %+v", last)
	}
	// SPEC series: app binary 95%.
	if got := fig.Series[1].Breakdown.Share("app binary"); got != 0.95 {
		t.Fatalf("spec app binary share = %v", got)
	}
}

func TestFig2UsesDataKinds(t *testing.T) {
	fig := Fig2(twoResults())
	b := fig.Series[0].Breakdown
	if b.Share("gralloc-buffer") != 0.5 || b.Share("fb0 (frame buffer)") != 0.3 {
		t.Fatalf("fig2 shares: %+v", b.Rows)
	}
	if b.Share("mspace") != 0 {
		t.Fatal("instruction-only region leaked into fig2")
	}
}

func TestFig3And4Processes(t *testing.T) {
	fig3 := Fig3(twoResults())
	if got := fig3.Series[0].Breakdown.Share("benchmark"); got != 1.0 {
		t.Fatalf("fig3 benchmark share = %v (ifetch all from benchmark)", got)
	}
	fig4 := Fig4(twoResults())
	if got := fig4.Series[0].Breakdown.Share("system_server"); got != 0.8 {
		t.Fatalf("fig4 system_server share = %v", got)
	}
}

func TestTable1ExcludesSPEC(t *testing.T) {
	b := Table1(twoResults())
	if b.Share("SurfaceFlinger") == 0 {
		t.Fatal("Table1 lost SurfaceFlinger")
	}
	// The SPEC result also holds 200 refs under thread "main"; Table1
	// must contain only the Android result's 200.
	if b.Total != 200 {
		t.Fatalf("Table1 total = %d, want 200 (Agave only)", b.Total)
	}
	if got := b.Share("SurfaceFlinger"); got != 0.4 {
		t.Fatalf("SurfaceFlinger share = %v, want 0.4", got)
	}
}

func TestScalarsAndSuiteCounts(t *testing.T) {
	rows := Scalars(twoResults())
	if len(rows) != 2 || rows[0].Benchmark != "frozenbubble.main" || rows[0].Processes != 20 {
		t.Fatalf("scalars = %+v", rows)
	}
	code, data := SuiteRegionCounts(twoResults())
	if code != 3 || data != 3 {
		t.Fatalf("suite counts = %d/%d, want 3/3 (Agave only)", code, data)
	}
}

func TestWriters(t *testing.T) {
	fig := Fig1(twoResults())
	var tbl, csv, bars bytes.Buffer
	WriteTable(&tbl, fig)
	WriteCSV(&csv, fig)
	WriteBars(&bars, fig)
	if !strings.Contains(tbl.String(), "frozenbubble.main") {
		t.Fatal("table missing benchmark row")
	}
	header := strings.SplitN(csv.String(), "\n", 2)[0]
	if !strings.HasPrefix(header, "benchmark,mspace,") || !strings.HasSuffix(header, ",other") {
		t.Fatalf("csv header = %q", header)
	}
	// CSV rows: one per series, shares sum to ~100.
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines", len(lines))
	}
	if !strings.Contains(bars.String(), "|") {
		t.Fatal("bars missing bar glyphs")
	}

	var t1 bytes.Buffer
	WriteTable1(&t1, Table1(twoResults()), 6)
	if !strings.Contains(t1.String(), "SurfaceFlinger") {
		t.Fatal("table1 missing SurfaceFlinger")
	}
	var sc bytes.Buffer
	WriteScalars(&sc, Scalars(twoResults()))
	if !strings.Contains(sc.String(), "code regions") {
		t.Fatal("scalars missing header")
	}
}

func TestLegendsMatchPaper(t *testing.T) {
	// Spot-check the verbatim legend entries from the paper's figures.
	has := func(legend []string, name string) bool {
		for _, l := range legend {
			if l == name {
				return true
			}
		}
		return false
	}
	if !has(Fig1Legend, "libcr3engine-3-1-1.so") || !has(Fig1Legend, "dalvik-jit-code-cache") {
		t.Fatal("Fig1 legend missing paper entries")
	}
	if !has(Fig2Legend, "dalvik-LinearAlloc") || !has(Fig2Legend, "fb0 (frame buffer)") {
		t.Fatal("Fig2 legend missing paper entries")
	}
	if !has(Fig3Legend, "ata_sff/0") || !has(Fig3Legend, "dexopt") {
		t.Fatal("Fig3 legend missing paper entries")
	}
	if !has(Fig4Legend, "id.defcontainer") {
		t.Fatal("Fig4 legend missing id.defcontainer")
	}
	if len(Fig1Legend) != 9 || len(Fig2Legend) != 9 || len(Fig3Legend) != 9 || len(Fig4Legend) != 9 {
		t.Fatal("legends must have 9 named entries + other, as in the paper")
	}
}

// fakeOutputs wraps the fake results as suite outputs of a two-benchmark,
// one-seed plan.
func fakeOutputs() (suite.Plan, []suite.RunOutput[*core.Result]) {
	plan := suite.Plan{
		Benchmarks: []string{"frozenbubble.main", "401.bzip2"},
		Seeds:      []uint64{1},
		Ablations:  []suite.Ablation{suite.Baseline},
	}
	specs := plan.Specs()
	rs := twoResults()
	rs[1].Checksum = 0xdead
	outs := make([]suite.RunOutput[*core.Result], len(specs))
	for i, s := range specs {
		outs[i] = suite.RunOutput[*core.Result]{
			Spec: s, Result: rs[i], Wall: 5 * time.Millisecond, Ticks: sim.Second,
		}
	}
	return plan, outs
}

func TestMatrixRows(t *testing.T) {
	_, outs := fakeOutputs()
	rows := MatrixRows(outs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.Benchmark != "frozenbubble.main" || r.Seed != 1 || r.Ablation != "base" {
		t.Fatalf("row identity wrong: %+v", r)
	}
	if r.TotalRefs != outs[0].Result.Stats.Total() || r.Fingerprint != outs[0].Result.Stats.Fingerprint() {
		t.Fatalf("row stats wrong: %+v", r)
	}
	if rows[1].Checksum != 0xdead {
		t.Fatalf("SPEC checksum dropped: %+v", rows[1])
	}
	if r.TicksPerSec <= 0 || r.WallMS <= 0 {
		t.Fatalf("row measurements missing: %+v", r)
	}
	// Failed runs are skipped.
	outs[0].Err = errFake
	if got := len(MatrixRows(outs)); got != 1 {
		t.Fatalf("failed run not skipped: %d rows", got)
	}
}

var errFake = fmt.Errorf("fake failure")

// fakeSpec builds the fleet job of the fake outputs' plan.
func fakeSpec(t *testing.T, plan suite.Plan) *fleet.Spec {
	t.Helper()
	spec, err := FleetSpec(core.DefaultConfig(), plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWriteMatrixAndSummaries(t *testing.T) {
	plan, outs := fakeOutputs()
	var buf bytes.Buffer
	WriteMatrix(&buf, outs)
	out := buf.String()
	if !strings.Contains(out, "frozenbubble.main") || !strings.Contains(out, "401.bzip2") {
		t.Fatalf("matrix missing rows:\n%s", out)
	}
	spec := fakeSpec(t, plan)
	rep, err := Summarize(spec, outs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 2 || len(rep.Cells) != 2 || rep.Cells[0].Unit != "frozenbubble.main" || rep.Cells[1].Unit != "401.bzip2" {
		t.Fatalf("summary cells wrong: %d runs, %+v", rep.Runs, rep.Cells)
	}
	buf.Reset()
	WriteFleetText(&buf, rep)
	if !strings.Contains(buf.String(), "total refs mean") || !strings.Contains(buf.String(), "fingerprint: ") {
		t.Fatalf("summaries malformed:\n%s", buf.String())
	}
	// The summary folds only a whole, successful sweep of its own plan.
	if _, err := Summarize(spec, outs[:1]); err == nil || !strings.Contains(err.Error(), "no output for plan spec 1") {
		t.Fatalf("short sweep summarized: %v", err)
	}
	outs[1].Err = errFake
	if _, err := Summarize(spec, outs); !errors.Is(err, errFake) {
		t.Fatalf("failed run summarized: %v", err)
	}
}

func TestWriteSuiteJSONRoundTrip(t *testing.T) {
	plan, outs := fakeOutputs()
	rep, err := Summarize(fakeSpec(t, plan), outs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSuiteJSON(&buf, plan, 4, outs, rep); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Runs   []MatrixRow   `json:"runs"`
		Report *fleet.Report `json:"report"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Runs) != 2 {
		t.Fatalf("JSON runs wrong: %v", doc.Runs)
	}
	if doc.Report == nil || !reflect.DeepEqual(*doc.Report, *rep) {
		t.Fatalf("JSON report does not round-trip: %+v", doc.Report)
	}
}

func TestFleetLineCanonical(t *testing.T) {
	results := twoResults()
	spec := suite.RunSpec{Index: 3, Benchmark: "frozenbubble.main", Seed: 7, Ablation: suite.Ablation{Name: "nojit"}}
	line := FleetLine(spec, results[0])
	if line.Index != 3 || line.Unit != "frozenbubble.main" || line.Seed != 7 || line.Ablation != "nojit" {
		t.Fatalf("line header wrong: %+v", line)
	}
	if line.Fingerprint != results[0].Stats.Fingerprint() {
		t.Fatal("line fingerprint does not match the run's stats fingerprint")
	}
	for i := 1; i < len(line.Metrics); i++ {
		if line.Metrics[i-1].Name >= line.Metrics[i].Name {
			t.Fatalf("metrics not name-sorted: %+v", line.Metrics)
		}
	}
	// Two calls over the same result encode identically — the map fold
	// never leaks iteration order onto the wire.
	a, err := line.Encode()
	if err != nil {
		t.Fatal(err)
	}
	again := FleetLine(spec, results[0])
	b, err := again.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("line encoding unstable:\n%s\n%s", a, b)
	}
}

func TestWriteFleetReport(t *testing.T) {
	rep := &fleet.Report{
		PlanHash: "abc", Runs: 4, Shards: 2, ShardSize: 2,
		Fingerprint: fleet.Digest{}.Hex(),
		Cells: []*fleet.Cell{
			{Unit: "frozenbubble.main", Ablation: "base", Runs: 4, Metrics: []fleet.MetricAgg{
				{Name: "total_refs", Agg: stats.Agg{N: 4, Sum: 800, MinV: 100, MaxV: 300}},
			}},
		},
	}
	var buf bytes.Buffer
	WriteFleetText(&buf, rep)
	out := buf.String()
	for _, want := range []string{"4 runs in 2 shards of 2", "frozenbubble.main", "200 [100, 300]", "fingerprint: " + fleet.Digest{}.Hex()} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet text missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := WriteFleetJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var round fleet.Report
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("invalid fleet JSON: %v\n%s", err, buf.String())
	}
	if round.Fingerprint != rep.Fingerprint || len(round.Cells) != 1 {
		t.Fatalf("fleet JSON round-trip wrong: %+v", round)
	}
}
