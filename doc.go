// Package agave is a full-system reproduction of "Agave: A Benchmark Suite
// for Exploring the Complexities of the Android Software Stack" (Brown et
// al., ISPASS 2016).
//
// The paper's measurement platform (Android 2.3.7 + Linux 2.6.35 inside a
// modified gem5) is rebuilt here as a deterministic behavioural simulator:
// every instruction fetch and data reference issued by the simulated stack
// is attributed to a (process, thread, VMA region) triple, and the paper's
// four figures and Table I are folds over the resulting counters.
//
// Entry points: the public API lives in internal/core (suite registry and
// runner) and internal/report (figure/table generation); the cmd/agave CLI
// and examples/ show typical use. See docs/ARCHITECTURE.md for the system
// inventory and layer map.
//
// Suite sweeps — the cross product of benchmarks × seeds × ablations — run
// on the parallel execution engine in internal/suite: runs are sharded
// across a bounded worker pool (each run boots its own simulated machine)
// and collected in deterministic plan order. Results are bit-identical to
// a serial run of the same plan; `agave suite -parallel N` and
// core.RunPlan expose the engine, and core.RunSuite is its serial
// results-slice wrapper. The mean/min/max summary across seeds is the
// fleet report of internal/fleet, whose aggregator is the one seed-fold:
// `agave suite` and `agave fleet` print the same report for the same plan.
//
// The package itself holds one thing: Scenarios, the embedded documents of
// the bundled scenario library that internal/scenario decodes.
package agave
