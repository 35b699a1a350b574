// Determinism regression harness: the same plan executed serially and on an
// 8-worker pool must produce bit-identical ordered results — per-benchmark
// attributed counters, census counts, and SPEC checksums. This is the
// guarantee that makes parallel sweeps trustworthy measurement rather than
// just fast measurement.
package suite_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/suite"
)

// determinismPlan crosses 3 Agave workloads + 2 SPEC baselines + 7 multi-app
// scenarios with 2 seeds and the full ablation sweep: 12 × 2 × 3 = 72 runs,
// above the 25-run bar the engine must hold the guarantee at. The scenario
// axis is deliberately the hostile set: concurrent live apps (social-burst)
// and kill/relaunch churn (app-churn) are where scheduling nondeterminism
// would surface first, the two pressure scenarios (memory-storm,
// cached-app-eviction) add emergent lowmemorykiller kills and onTrimMemory
// traffic, arcade-rally pushes input events through the InputDispatcher
// with gestures racing process kills — system-initiated events and
// drop accounting that must still replay bit-identically — and the two
// chaos scenarios (binder-storm, mediaserver-meltdown) drive the fault
// injection plane: armed binder failures, service crash/restart cycles, and
// mediaserver kills with session adoption, all of which must land at the
// same simulated instants under any worker count.
func determinismPlan() suite.Plan {
	return suite.Plan{
		Benchmarks: []string{
			"frozenbubble.main", // Java game (JIT-sensitive)
			"gallery.mp4.view",  // media stack, mediaserver-dominant
			"pm.apk.view",       // install workload, dexopt
			"401.bzip2",         // SPEC baseline
			"462.libquantum",    // SPEC baseline
		},
		Scenarios: []string{
			"social-burst",         // 4 concurrently-live apps
			"app-churn",            // kill/relaunch lifecycle stress
			"memory-storm",         // emergent lowmemorykiller kills
			"cached-app-eviction",  // trim rescue + LRU eviction
			"arcade-rally",         // InputDispatcher traffic + mid-kill drops
			"binder-storm",         // binder faults + corrupt parcels + crash/restart
			"mediaserver-meltdown", // mediaserver kills + session adoption
		},
		Seeds:     []uint64{1, 7},
		Ablations: suite.DefaultAblations,
	}
}

func quickCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.Duration = 150 * sim.Millisecond
	cfg.Warmup = 100 * sim.Millisecond
	return cfg
}

func TestParallelSweepBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("72-run sweep")
	}
	plan := determinismPlan()
	if plan.Size() < 25 {
		t.Fatalf("plan has %d runs, determinism bar is >= 25", plan.Size())
	}
	cfg := quickCfg()
	serial, err := core.RunPlan(cfg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.RunPlan(cfg, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != plan.Size() || len(parallel) != plan.Size() {
		t.Fatalf("run counts: serial %d, parallel %d, want %d", len(serial), len(parallel), plan.Size())
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		name := s.Spec.String()
		if p.Spec != s.Spec {
			t.Fatalf("run %d: spec order diverged: serial %s, parallel %s", i, s.Spec, p.Spec)
		}
		sr, pr := s.Result, p.Result
		if sr.Benchmark != pr.Benchmark || sr.IsSPEC != pr.IsSPEC {
			t.Fatalf("%s: identity diverged", name)
		}
		if sr.Processes != pr.Processes || sr.Threads != pr.Threads ||
			sr.CodeRegions != pr.CodeRegions || sr.DataRegions != pr.DataRegions {
			t.Errorf("%s: census diverged: serial %d/%d/%d/%d, parallel %d/%d/%d/%d",
				name, sr.Processes, sr.Threads, sr.CodeRegions, sr.DataRegions,
				pr.Processes, pr.Threads, pr.CodeRegions, pr.DataRegions)
		}
		if sr.Checksum != pr.Checksum {
			t.Errorf("%s: SPEC checksum diverged: %#x vs %#x", name, sr.Checksum, pr.Checksum)
		}
		if sf, pf := sr.Stats.Fingerprint(), pr.Stats.Fingerprint(); sf != pf {
			t.Errorf("%s: counter fingerprint diverged: %#x vs %#x", name, sf, pf)
		}
		// Fingerprints hash the canonical entry list; compare the lists
		// directly too so a hash collision can never mask a divergence.
		if !reflect.DeepEqual(sr.Stats.Entries(), pr.Stats.Entries()) {
			t.Errorf("%s: attributed counter matrices diverged", name)
		}
	}
}

// TestAdHocScenarioSweepBitIdenticalToSerial extends the determinism
// guarantee to the two scenario sources that bypass the bundled registry:
// documents decoded from committed scenario files and generator output
// (including a 10-app session, the scale bar, a pressure-knob session with
// emergent lowmemorykiller activity, and a fault-knob session driving the
// injection plane). Same plan, same seeds: the 8-worker sweep must be
// bit-identical to the serial one, counter matrix and census included,
// exactly as for bundled units.
func TestAdHocScenarioSweepBitIdenticalToSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run ad-hoc scenario sweep")
	}
	fromFile, err := scenario.FromFile(filepath.Join("..", "..", "testdata", "scenarios", "social-burst.json"))
	if err != nil {
		t.Fatal(err)
	}
	plan := suite.Plan{
		ScenarioSet: []*scenario.Scenario{
			fromFile,
			scenario.Generate(scenario.GenConfig{Seed: 3, Apps: 10}),
			scenario.Generate(scenario.GenConfig{Seed: 4, Apps: 5, Events: 30, Pressure: 2}),
			scenario.Generate(scenario.GenConfig{Seed: 5, Apps: 4, Events: 16, Inputs: 24}),
			scenario.Generate(scenario.GenConfig{Seed: 6, Apps: 4, Events: 16, Faults: 10}),
		},
		Seeds: []uint64{1, 7},
	}
	cfg := quickCfg()
	serial, err := core.RunPlan(cfg, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.RunPlan(cfg, plan, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != plan.Size() || len(parallel) != plan.Size() {
		t.Fatalf("run counts: serial %d, parallel %d, want %d", len(serial), len(parallel), plan.Size())
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if p.Spec != s.Spec {
			t.Fatalf("run %d: spec order diverged: serial %s, parallel %s", i, s.Spec, p.Spec)
		}
		name := s.Spec.String()
		sr, pr := s.Result, p.Result
		if sr.Session == nil || pr.Session == nil {
			t.Fatalf("%s: ad-hoc scenario run carries no session result", name)
		}
		if sr.Session.Scenario.Source == "" {
			t.Errorf("%s: ad-hoc scenario run carries no provenance", name)
		}
		if sf, pf := sr.Stats.Fingerprint(), pr.Stats.Fingerprint(); sf != pf {
			t.Errorf("%s: counter fingerprint diverged: %#x vs %#x", name, sf, pf)
		}
		if !reflect.DeepEqual(sr.Stats.Entries(), pr.Stats.Entries()) {
			t.Errorf("%s: attributed counter matrices diverged", name)
		}
		if sr.Processes != pr.Processes || sr.Threads != pr.Threads ||
			sr.LiveProcesses != pr.LiveProcesses {
			t.Errorf("%s: census diverged", name)
		}
		if !reflect.DeepEqual(sr.Session.LMKVictims, pr.Session.LMKVictims) ||
			sr.Session.Trims != pr.Session.Trims {
			t.Errorf("%s: pressure outcome diverged: %v/%d vs %v/%d", name,
				sr.Session.LMKVictims, sr.Session.Trims, pr.Session.LMKVictims, pr.Session.Trims)
		}
		if sr.Session.InputDispatched != pr.Session.InputDispatched ||
			sr.Session.InputDropped != pr.Session.InputDropped ||
			!reflect.DeepEqual(sr.Session.InputApps, pr.Session.InputApps) {
			t.Errorf("%s: input outcome diverged: %d/%d vs %d/%d", name,
				sr.Session.InputDispatched, sr.Session.InputDropped,
				pr.Session.InputDispatched, pr.Session.InputDropped)
		}
		if sr.Session.FaultsInjected != pr.Session.FaultsInjected ||
			sr.Session.FaultsDetected != pr.Session.FaultsDetected ||
			sr.Session.FaultsRecovered != pr.Session.FaultsRecovered ||
			sr.Session.ANRs != pr.Session.ANRs {
			t.Errorf("%s: dependability outcome diverged: %d/%d/%d/%d vs %d/%d/%d/%d", name,
				sr.Session.FaultsInjected, sr.Session.FaultsDetected,
				sr.Session.FaultsRecovered, sr.Session.ANRs,
				pr.Session.FaultsInjected, pr.Session.FaultsDetected,
				pr.Session.FaultsRecovered, pr.Session.ANRs)
		}
	}
	// The 10-app generated session's script must reach the requested scale:
	// its timeline's peak live-app count, read from the scenario the run
	// carries.
	for _, o := range serial {
		if o.Spec.Def != nil && o.Spec.Benchmark == "gen-s3-a10-e40-p0-i0-f0" && o.Result.Session.Scenario.MaxLiveApps() != 10 {
			t.Errorf("10-app generated session peaked at %d live apps", o.Result.Session.Scenario.MaxLiveApps())
		}
	}
}

// TestScenarioSetSpecsExpandAfterNamedScenarios pins the extended plan
// order: benchmarks, then named scenarios, then the ad-hoc scenario set,
// with Def carried on set specs only.
func TestScenarioSetSpecsExpandAfterNamedScenarios(t *testing.T) {
	gen := scenario.Generate(scenario.GenConfig{Seed: 2, Apps: 2, Events: 6})
	plan := suite.Plan{
		Benchmarks:  []string{"countdown.main"},
		Scenarios:   []string{"commute"},
		ScenarioSet: []*scenario.Scenario{gen},
		Seeds:       []uint64{1},
	}
	specs := plan.Specs()
	if len(specs) != 3 || plan.Size() != 3 {
		t.Fatalf("expanded %d specs (Size %d), want 3", len(specs), plan.Size())
	}
	if specs[0].Scenario || specs[0].Def != nil {
		t.Fatalf("benchmark spec malformed: %+v", specs[0])
	}
	if !specs[1].Scenario || specs[1].Def != nil || specs[1].Benchmark != "commute" {
		t.Fatalf("named scenario spec malformed: %+v", specs[1])
	}
	if !specs[2].Scenario || specs[2].Def != gen || specs[2].Benchmark != gen.Name {
		t.Fatalf("scenario-set spec malformed: %+v", specs[2])
	}
	if got := specs[2].UnitName(); got != "scenario:"+gen.Name {
		t.Fatalf("UnitName = %q", got)
	}
}

// TestRunPlanMatchesRunSuite pins the public-API contract: the serial
// results slice the figure commands fold equals the 4-worker RunPlan of the
// same benchmarks at the same seed.
func TestRunPlanMatchesRunSuite(t *testing.T) {
	names := []string{"countdown.main", "aard.main", "429.mcf"}
	cfg := quickCfg()
	serial, err := core.RunSuite(cfg, names...)
	if err != nil {
		t.Fatal(err)
	}
	par, err := core.RunPlan(cfg, suite.Plan{Benchmarks: names, Seeds: []uint64{cfg.Seed}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("lengths diverged: %d vs %d", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].Benchmark != par[i].Result.Benchmark {
			t.Fatalf("order diverged at %d: %s vs %s", i, serial[i].Benchmark, par[i].Result.Benchmark)
		}
		if serial[i].Stats.Fingerprint() != par[i].Result.Stats.Fingerprint() {
			t.Fatalf("%s: stats diverged between RunSuite and RunPlan", serial[i].Benchmark)
		}
	}
}

// TestAblationSpecsChangeBehavior guards against the matrix silently running
// the baseline config for every cell: the nojit ablation must actually
// change the counter matrix of a JIT-heavy workload.
func TestAblationSpecsChangeBehavior(t *testing.T) {
	plan := suite.Plan{
		Benchmarks: []string{"frozenbubble.main"},
		Seeds:      []uint64{1},
		Ablations:  []suite.Ablation{suite.Baseline, {Name: "nojit", DisableJIT: true}},
	}
	outs, err := core.RunPlan(quickCfg(), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("got %d outputs, want 2", len(outs))
	}
	if outs[0].Result.Stats.Fingerprint() == outs[1].Result.Stats.Fingerprint() {
		t.Fatal("nojit ablation produced bit-identical stats to baseline")
	}
}

func TestRunPlanUnknownBenchmark(t *testing.T) {
	plan := suite.Plan{Benchmarks: []string{"frozenbubble.main", "no.such.bench"}}
	_, err := core.RunPlan(quickCfg(), plan, 4)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunPlanUnknownScenario(t *testing.T) {
	plan := suite.Plan{Scenarios: []string{"no-such-session"}}
	_, err := core.RunPlan(quickCfg(), plan, 4)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

// TestScenarioSpecsExpandAfterBenchmarks pins the plan order contract:
// benchmarks first, then scenarios, each crossed with every seed and
// ablation, with the scenario bit set and the "scenario:" display prefix.
func TestScenarioSpecsExpandAfterBenchmarks(t *testing.T) {
	plan := suite.Plan{
		Benchmarks: []string{"countdown.main"},
		Scenarios:  []string{"commute"},
		Seeds:      []uint64{1, 2},
	}
	specs := plan.Specs()
	if len(specs) != 4 || plan.Size() != 4 {
		t.Fatalf("expanded %d specs (Size %d), want 4", len(specs), plan.Size())
	}
	for i, want := range []struct {
		name     string
		scenario bool
	}{
		{"countdown.main", false}, {"countdown.main", false},
		{"commute", true}, {"commute", true},
	} {
		if specs[i].Benchmark != want.name || specs[i].Scenario != want.scenario {
			t.Fatalf("spec %d = %+v, want %s scenario=%v", i, specs[i], want.name, want.scenario)
		}
	}
	if got := specs[3].UnitName(); got != "scenario:commute" {
		t.Fatalf("UnitName = %q", got)
	}
}
