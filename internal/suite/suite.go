// Package suite is the parallel suite-execution engine of the Agave
// reproduction. It shards benchmark runs across a bounded pool of worker
// goroutines — each run boots its own simulated machine, so runs are
// share-nothing — while preserving the determinism guarantee of serial
// execution: results are collected in plan order, bit-identical to a
// one-worker run, regardless of completion order.
//
// A sweep is expressed as a Plan: the cross product of benchmark names ×
// seeds × ablation configurations, expanded into an ordered []RunSpec. The
// generic Engine executes specs through a caller-supplied run function (the
// core package adapts core.RunOne; this package deliberately does not
// import core so core.RunPlan can delegate here without an import cycle)
// and reports per-run wall clock plus simulated-tick throughput. Each is
// the bounded, in-order, stop-on-failure dispatch loop under both the
// Engine and the fleet coordinator. Cross-seed summaries are not folded
// here: report.Summarize replays a sweep through the fleet aggregator, the
// one seed-fold.
package suite

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"agave/internal/scenario"
	"agave/internal/sim"
)

// Ablation is one configuration axis of a plan: a named set of overrides
// applied on top of the base run configuration. The zero value (empty name,
// no overrides) is the baseline.
type Ablation struct {
	// Name labels the ablation in reports ("base" when empty).
	Name string
	// DisableJIT turns the trace JIT off (paper ablation A1).
	DisableJIT bool
	// DirtyRectComposition switches SurfaceFlinger to composing only
	// posted surfaces (paper ablation A3).
	DirtyRectComposition bool
}

// Baseline is the no-override ablation every plan starts from.
var Baseline = Ablation{Name: "base"}

// DefaultAblations is the paper's ablation sweep: baseline, JIT off, and
// dirty-rect composition.
var DefaultAblations = []Ablation{
	Baseline,
	{Name: "nojit", DisableJIT: true},
	{Name: "dirtyrect", DirtyRectComposition: true},
}

// Label reports the ablation's display name.
func (a Ablation) Label() string {
	if a.Name == "" {
		return "base"
	}
	return a.Name
}

// Plan is a run matrix: every benchmark and every scenario is run once per
// (seed, ablation) pair. Scenarios are a first-class axis alongside
// benchmarks — a scripted multi-app session shards across the worker pool
// exactly like a single-app run, under the same bit-identity guarantee.
// Empty Seeds defaults to {1}; empty Ablations defaults to {Baseline}.
type Plan struct {
	Benchmarks []string
	// ScenarioSet is the scenario axis: one definition per session —
	// bundled, loaded from a file, or produced by the generator — resolved
	// when the plan is built, so every run of a session executes the same
	// document, in this process or a fleet worker.
	ScenarioSet []*scenario.Scenario
	Seeds       []uint64
	Ablations   []Ablation
}

// Size reports how many runs the plan expands to.
func (p Plan) Size() int {
	units := len(p.Benchmarks) + len(p.ScenarioSet)
	return units * max(len(p.Seeds), 1) * max(len(p.Ablations), 1)
}

// ScenarioNames lists the names of the plan's scenario axis in the order
// Specs expands it. Report writers use this so the JSON plan header can
// never desynchronize from the run rows.
func (p Plan) ScenarioNames() []string {
	var names []string
	for _, sc := range p.ScenarioSet {
		names = append(names, sc.Name)
	}
	return names
}

// Specs expands the plan into the deterministic run order: benchmarks
// first, then the scenario set — each unit-major, then seed, then ablation.
// This order — not completion order — is the order results are collected
// and emitted in.
func (p Plan) Specs() []RunSpec {
	seeds := p.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{1}
	}
	ablations := p.Ablations
	if len(ablations) == 0 {
		ablations = []Ablation{Baseline}
	}
	specs := make([]RunSpec, 0, p.Size())
	add := func(name string, def *scenario.Scenario) {
		for _, s := range seeds {
			for _, a := range ablations {
				specs = append(specs, RunSpec{
					Index:     len(specs),
					Benchmark: name,
					Scenario:  def != nil,
					Def:       def,
					Seed:      s,
					Ablation:  a,
				})
			}
		}
	}
	for _, b := range p.Benchmarks {
		add(b, nil)
	}
	for _, sc := range p.ScenarioSet {
		add(sc.Name, sc)
	}
	return specs
}

// NumShards reports how many fixed-size shards a plan of total specs slices
// into: ceil(total/size). Shard geometry is a pure function of the plan and
// the shard size — never of worker count — so the fleet executor's shard
// numbering is deterministic: shard i always covers the same plan positions
// no matter how many processes execute the sweep.
func NumShards(total, size int) int {
	if total <= 0 || size <= 0 {
		return 0
	}
	return (total + size - 1) / size
}

// ShardRange reports the half-open plan-order spec range [lo, hi) of the
// given shard: every shard covers size consecutive specs except the last,
// which covers the remainder. Panics on an out-of-range shard — the fleet
// wire protocol validates shard ids before slicing.
func ShardRange(total, size, shard int) (lo, hi int) {
	if shard < 0 || shard >= NumShards(total, size) {
		panic(fmt.Sprintf("suite: shard %d out of range (total %d, size %d)", shard, total, size))
	}
	lo = shard * size
	hi = lo + size
	if hi > total {
		hi = total
	}
	return lo, hi
}

// RunSpec identifies one run of a plan.
type RunSpec struct {
	Index int // position in plan order
	// Benchmark names the unit under run: a benchmark, or — when Scenario
	// is set — a scripted multi-app scenario.
	Benchmark string
	// Scenario reports whether the unit is a scenario; it is set exactly
	// when Def is.
	Scenario bool
	// Def is the scenario definition the spec runs; nil means Benchmark
	// names a benchmark.
	Def      *scenario.Scenario
	Seed     uint64
	Ablation Ablation
}

// UnitName is the spec's display name: the benchmark name, or the scenario
// name carrying a "scenario:" prefix so the two axes can never alias in
// reports and summaries.
func (s RunSpec) UnitName() string {
	if s.Scenario {
		return "scenario:" + s.Benchmark
	}
	return s.Benchmark
}

// String renders the spec as "benchmark/seed=N/ablation".
func (s RunSpec) String() string {
	return fmt.Sprintf("%s/seed=%d/%s", s.UnitName(), s.Seed, s.Ablation.Label())
}

// RunOutput is one completed run: the caller's result payload plus the
// engine's own measurements.
type RunOutput[R any] struct {
	Spec   RunSpec
	Result R
	Err    error
	// Wall is the real time the run took on its worker.
	Wall time.Duration
	// Ticks is the simulated time the run covered (as reported by the run
	// function); Ticks/Wall is the simulation throughput.
	Ticks sim.Ticks
}

// TicksPerSecond reports simulation throughput: simulated ticks per real
// second.
func (o RunOutput[R]) TicksPerSecond() float64 {
	if o.Wall <= 0 {
		return 0
	}
	return float64(o.Ticks) / o.Wall.Seconds()
}

// RunError is the first failure (in plan order) of an Execute call.
type RunError struct {
	Spec RunSpec
	Err  error
}

func (e *RunError) Error() string { return fmt.Sprintf("%s: %v", e.Spec, e.Err) }

// Unwrap exposes the underlying run error.
func (e *RunError) Unwrap() error { return e.Err }

// Each calls fn(0), ..., fn(n-1) on at most workers goroutines (< 1 means
// one), dispatching indexes in ascending order. After a call fails no
// further index is dispatched, and calls already running finish. Each
// returns the error of the smallest failed index: every smaller index was
// dispatched before it and has run, so that is the error a serial loop
// would have stopped at. It is the one dispatch loop of the suite engine
// and the fleet coordinator.
func Each(workers, n int, fn func(i int) error) error {
	var (
		mu     sync.Mutex
		next   int
		failed = n // smallest failed index; n while none has failed
		err    error
		wg     sync.WaitGroup
	)
	workers = min(max(workers, 1), n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if err != nil || next >= n {
					mu.Unlock()
					return
				}
				i := next
				next++
				mu.Unlock()
				if e := fn(i); e != nil {
					mu.Lock()
					if i < failed {
						failed, err = i, e
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return err
}

// Engine executes run specs across a bounded worker pool. Each worker calls
// Run, which must boot a fresh simulated machine per call (runs share
// nothing); Run returns the result payload and how many simulated ticks the
// run covered.
type Engine[R any] struct {
	// Parallel bounds the worker pool; <= 0 means GOMAXPROCS. The
	// simulator is CPU-bound, so more workers than cores only adds
	// scheduler thrash — prefer the default.
	Parallel int
	// Run executes one spec. It must be safe for concurrent calls.
	Run func(RunSpec) (R, sim.Ticks, error)
}

// Execute runs the specs on Each — dispatched in plan order, so with
// Parallel=1 execution is exactly the serial loop — and returns their
// outputs in plan order. If any run fails, dispatch stops and the first
// error in plan order is returned as a *RunError alongside the outputs
// gathered so far (failed or skipped entries keep their Err / zero Result).
func (e Engine[R]) Execute(specs []RunSpec) ([]RunOutput[R], error) {
	workers := e.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outputs := make([]RunOutput[R], len(specs))
	for i, s := range specs {
		outputs[i].Spec = s
	}
	err := Each(workers, len(specs), func(i int) error {
		start := time.Now() //agave:allow walltime Wall is operator-facing elapsed time, reported alongside the deterministic tick count, never fed back into the simulation
		res, ticks, err := e.Run(specs[i])
		outputs[i] = RunOutput[R]{
			Spec:   specs[i],
			Result: res,
			Err:    err,
			Wall:   time.Since(start), //agave:allow walltime same display-only measurement as the paired time.Now above
			Ticks:  ticks,
		}
		if err != nil {
			return &RunError{Spec: specs[i], Err: err}
		}
		return nil
	})
	return outputs, err
}
