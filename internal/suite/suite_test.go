package suite

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"agave/internal/sim"
)

func TestPlanSpecsOrderAndDefaults(t *testing.T) {
	p := Plan{
		Benchmarks: []string{"a", "b"},
		Seeds:      []uint64{1, 2},
		Ablations:  []Ablation{Baseline, {Name: "nojit", DisableJIT: true}},
	}
	specs := p.Specs()
	if len(specs) != p.Size() || len(specs) != 8 {
		t.Fatalf("plan expanded to %d specs, want 8", len(specs))
	}
	// Benchmark-major, then seed, then ablation; indexes sequential.
	want := []string{
		"a/seed=1/base", "a/seed=1/nojit", "a/seed=2/base", "a/seed=2/nojit",
		"b/seed=1/base", "b/seed=1/nojit", "b/seed=2/base", "b/seed=2/nojit",
	}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has index %d", i, s.Index)
		}
		if s.String() != want[i] {
			t.Fatalf("spec %d = %s, want %s", i, s, want[i])
		}
	}

	// Empty seed and ablation axes collapse to singletons.
	defaults := Plan{Benchmarks: []string{"x"}}.Specs()
	if len(defaults) != 1 || defaults[0].Seed != 1 || defaults[0].Ablation.Label() != "base" {
		t.Fatalf("default expansion wrong: %+v", defaults)
	}
}

func TestEngineOutputsInPlanOrder(t *testing.T) {
	// Workers that finish in reverse order must not reorder outputs.
	specs := Plan{Benchmarks: []string{"b0", "b1", "b2", "b3", "b4", "b5"}}.Specs()
	eng := Engine[string]{
		Parallel: len(specs),
		Run: func(s RunSpec) (string, sim.Ticks, error) {
			time.Sleep(time.Duration(len(specs)-s.Index) * 2 * time.Millisecond)
			return "r:" + s.Benchmark, sim.Ticks(100), nil
		},
	}
	outs, err := eng.Execute(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Result != "r:"+specs[i].Benchmark {
			t.Fatalf("output %d = %q, out of plan order", i, o.Result)
		}
		if o.Ticks != 100 || o.Wall <= 0 {
			t.Fatalf("output %d missing measurements: %+v", i, o)
		}
	}
}

func TestEngineBoundsWorkers(t *testing.T) {
	const bound = 3
	var inFlight, peak atomic.Int32
	specs := make([]RunSpec, 20)
	for i := range specs {
		specs[i] = RunSpec{Index: i, Benchmark: fmt.Sprintf("b%d", i), Seed: 1}
	}
	eng := Engine[struct{}]{
		Parallel: bound,
		Run: func(s RunSpec) (struct{}, sim.Ticks, error) {
			n := inFlight.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			return struct{}{}, 1, nil
		},
	}
	if _, err := eng.Execute(specs); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeds worker bound %d", p, bound)
	}
}

func TestEngineFirstErrorInPlanOrder(t *testing.T) {
	boom := errors.New("boom")
	specs := Plan{Benchmarks: []string{"ok0", "bad1", "ok2", "bad3", "ok4"}}.Specs()
	for _, parallel := range []int{1, 4} {
		eng := Engine[string]{
			Parallel: parallel,
			Run: func(s RunSpec) (string, sim.Ticks, error) {
				if s.Benchmark == "bad1" || s.Benchmark == "bad3" {
					return "", 0, boom
				}
				return s.Benchmark, 1, nil
			},
		}
		_, err := eng.Execute(specs)
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("parallel=%d: error %v is not a RunError", parallel, err)
		}
		if re.Spec.Benchmark != "bad1" {
			t.Fatalf("parallel=%d: first error at %s, want bad1", parallel, re.Spec)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: RunError does not unwrap to cause", parallel)
		}
	}
}

func TestEngineSerialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int32
	specs := Plan{Benchmarks: []string{"a", "bad", "c", "d"}}.Specs()
	eng := Engine[struct{}]{
		Parallel: 1,
		Run: func(s RunSpec) (struct{}, sim.Ticks, error) {
			ran.Add(1)
			if s.Benchmark == "bad" {
				return struct{}{}, 0, errors.New("stop here")
			}
			return struct{}{}, 1, nil
		},
	}
	if _, err := eng.Execute(specs); err == nil {
		t.Fatal("error swallowed")
	}
	if got := ran.Load(); got != 2 {
		t.Fatalf("serial engine ran %d specs after failure, want exactly 2 (historical RunSuite behavior)", got)
	}
}

func TestEngineEmptyPlan(t *testing.T) {
	eng := Engine[int]{Run: func(RunSpec) (int, sim.Ticks, error) { return 0, 0, nil }}
	outs, err := eng.Execute(nil)
	if err != nil || len(outs) != 0 {
		t.Fatalf("empty plan: outs=%v err=%v", outs, err)
	}
}

// TestEachReturnsSmallestFailedIndex pins the dispatch loop's error
// precedence: when index 3 fails at once and index 1 fails later, Each
// still returns index 1's error — the one a serial loop stops at — and
// dispatches nothing after the first failure.
func TestEachReturnsSmallestFailedIndex(t *testing.T) {
	var ran atomic.Int32
	err := Each(4, 100, func(i int) error {
		ran.Add(1)
		switch i {
		case 1:
			time.Sleep(20 * time.Millisecond)
			return fmt.Errorf("fail %d", i)
		case 3:
			return fmt.Errorf("fail %d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail 1" {
		t.Fatalf("Each returned %v, want fail 1", err)
	}
	if n := ran.Load(); n >= 100 {
		t.Fatalf("Each dispatched all %d indexes after a failure", n)
	}
}

func TestShardGeometry(t *testing.T) {
	if got := NumShards(0, 8); got != 0 {
		t.Fatalf("NumShards(0,8) = %d, want 0", got)
	}
	if got := NumShards(17, 8); got != 3 {
		t.Fatalf("NumShards(17,8) = %d, want 3", got)
	}
	if got := NumShards(16, 8); got != 2 {
		t.Fatalf("NumShards(16,8) = %d, want 2", got)
	}
	// Shards tile the plan exactly: consecutive, non-overlapping, covering.
	total, size := 17, 8
	next := 0
	for s := 0; s < NumShards(total, size); s++ {
		lo, hi := ShardRange(total, size, s)
		if lo != next || hi <= lo {
			t.Fatalf("shard %d = [%d,%d), want lo %d", s, lo, hi, next)
		}
		if hi-lo > size {
			t.Fatalf("shard %d covers %d specs, max %d", s, hi-lo, size)
		}
		next = hi
	}
	if next != total {
		t.Fatalf("shards cover %d specs, want %d", next, total)
	}
	for _, bad := range []int{-1, NumShards(total, size)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ShardRange(%d,%d,%d) did not panic", total, size, bad)
				}
			}()
			ShardRange(total, size, bad)
		}()
	}
}
