package dalvik

import (
	"strings"
	"testing"

	"agave/internal/dex"
	"agave/internal/kernel"
	"agave/internal/mem"
	"agave/internal/stats"
)

// These tests pin the interpreter edge cases any dispatch rewrite must
// preserve: div/rem-by-zero semantics, invoke argument-window snapshot
// semantics, the recursion-depth guard, mid-execution promotion to the JIT
// code cache, and the attribution of every interpreted/compiled mix.

const divRemSource = `
.method divZero 2
    div v2, v0, v1
    return v2
.end
.method remZero 2
    rem v2, v0, v1
    return v2
.end
`

// TestDivRemByZeroYieldsZero locks the documented divergence from real
// Dalvik (see internal/dex/isa.go): a zero divisor yields 0 instead of
// throwing ArithmeticException — in interpreted and compiled activations
// alike.
func TestDivRemByZeroYieldsZero(t *testing.T) {
	harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		f, err := Assemble("divrem", divRemSource)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		dd := vm.LoadDex(ex, f)
		if got := vm.Exec(ex, dd, "divZero", 17, 0); got != 0 {
			t.Errorf("interp 17/0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "remZero", 17, 0); got != 0 {
			t.Errorf("interp 17%%0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "divZero", 17, 5); got != 3 {
			t.Errorf("interp 17/5 = %d, want 3", got)
		}
		vm.ForceCompile(dd, "divZero")
		vm.ForceCompile(dd, "remZero")
		if got := vm.Exec(ex, dd, "divZero", 17, 0); got != 0 {
			t.Errorf("compiled 17/0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "remZero", 17, 0); got != 0 {
			t.Errorf("compiled 17%%0 = %d, want 0", got)
		}
		if got := vm.Exec(ex, dd, "remZero", 17, 5); got != 2 {
			t.Errorf("compiled 17%%5 = %d, want 2", got)
		}
	})
}

const snapshotSource = `
; caller keeps live values in the registers it passes as the arg window;
; the callee clobbers its own v0/v1 — the caller's v2/v3 must survive.
.method snapshotCaller 0
    const v2, 41
    const v3, 7
    invoke clobber, v2, v3
    move_result v4
    const v5, 10000
    mul v6, v2, v5
    const v5, 100
    mul v7, v3, v5
    add v6, v6, v7
    add v6, v6, v4
    return v6
.end
.method clobber 2
    add v2, v0, v1
    const v0, 999
    const v1, 888
    return v2
.end
`

// TestInvokeArgWindowSnapshot pins the copy-in semantics of OpInvoke: the
// callee frame snapshots the caller's regs[C:C+A] window at call time, so
// callee writes to its own registers never alias back into the caller.
func TestInvokeArgWindowSnapshot(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			f, err := Assemble("snapshot", snapshotSource)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			dd := vm.LoadDex(ex, f)
			if compiled {
				vm.ForceCompile(dd, "snapshotCaller")
				vm.ForceCompile(dd, "clobber")
			}
			want := int64(41*10000 + 7*100 + 48)
			if got := vm.Exec(ex, dd, "snapshotCaller"); got != want {
				t.Errorf("compiled=%v: snapshotCaller = %d, want %d (callee clobbered the caller's window?)",
					compiled, got, want)
			}
		})
	}
}

const spinSource = `
.method spin 0
    invoke spin
    return_void
.end
`

// TestRecursionDepthPanics pins the depth-64 frame guard: unbounded
// self-recursion must panic with the interpreter's message rather than
// overflow the host stack.
func TestRecursionDepthPanics(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			f, err := Assemble("spin", spinSource)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			dd := vm.LoadDex(ex, f)
			if compiled {
				vm.ForceCompile(dd, "spin")
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("compiled=%v: unbounded recursion did not panic", compiled)
					return
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "recursion too deep") {
					panic(r) // not ours — re-raise
				}
			}()
			vm.Exec(ex, dd, "spin")
		})
	}
}

// TestMidExecutionJITSwitchover pins the trace-JIT promotion race the
// rewrite must preserve: a single long Exec crosses the hot threshold via
// loop backedges, the Compiler thread runs while the interpreter is parked
// between accounting quanta, and the remainder of that same invocation
// executes from dalvik-jit-code-cache — so one call charges both libdvm.so
// and the JIT cache.
func TestMidExecutionJITSwitchover(t *testing.T) {
	var got int64
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		got = vm.Exec(ex, d, "sumLoop", 40_000)
	})
	const n = 40_000
	if want := int64(n) * (n - 1) / 2; got != want {
		t.Fatalf("sumLoop(%d) = %d, want %d", n, got, want)
	}
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch[mem.RegionJITCache] == 0 {
		t.Fatal("hot loop never switched to JIT-cache fetches mid-execution")
	}
	if ifetch["libdvm.so"] == 0 {
		t.Fatal("no interpreted prefix before the switchover")
	}
}

// TestCompiledElidesDexReads pins the attribution contract of compiled
// execution: a ForceCompile'd method fetches from dalvik-jit-code-cache at
// jitCost per bytecode and never reads the dex image — the only image reads
// left are LoadDex's class-loading walk.
func TestCompiledElidesDexReads(t *testing.T) {
	const n = 5000
	k := harness(t, false, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		vm.ForceCompile(d, "sumLoop")
		if got := vm.Exec(ex, d, "sumLoop", n); got != int64(n)*(n-1)/2 {
			t.Errorf("compiled sumLoop(%d) = %d, want %d", n, got, int64(n)*(n-1)/2)
		}
	})
	ifetch := k.Stats.ByRegion(stats.IFetch)
	bytecodes := uint64(4*n + 4)
	if got := ifetch[mem.RegionJITCache]; got != bytecodes*jitCost {
		t.Errorf("JIT-cache fetches = %d, want exactly %d (jitCost per bytecode)", got, bytecodes*jitCost)
	}
	// LoadDex walks a quarter of the image words; interpretation of a
	// compiled method must add nothing on top of that.
	if reads := k.Stats.ByRegion(stats.DataRead)["benchmark@classes.dex"]; reads >= 1000 {
		t.Errorf("dex reads = %d, want < 1000: compiled execution should elide the per-bytecode dex read", reads)
	}
}

// runStock executes every stock method once, on inputs large enough to
// cross the accounting flush boundary many times and the trace-discovery
// counter at least once.
func runStock(ex *kernel.Exec, vm *VM, d *LoadedDex) {
	vm.Exec(ex, d, "sumLoop", 3000)
	a := vm.Exec(ex, d, "fillArray", 600)
	b := vm.Exec(ex, d, "fillArray", 600)
	vm.Exec(ex, d, "scanArray", a)
	vm.Exec(ex, d, "blend", a, b)
	chain := vm.Exec(ex, d, "objectChurn", 500)
	vm.Exec(ex, d, "chainWalk", chain)
	vm.Exec(ex, d, "callHeavy", 400)
	vm.Exec(ex, d, "helper", 9)
}

// dispatchGolden pins the full attribution (stats fingerprint and total
// reference count) of the dispatch loop under each mix of interpreted and
// compiled execution. The table was recorded before the interpreted and
// compiled executors were merged into one loop; a dispatch rewrite must
// reproduce it unchanged. Never regenerate it to make a rewrite pass.
var dispatchGolden = []struct {
	name        string
	services    bool
	body        func(ex *kernel.Exec, vm *VM, d *LoadedDex)
	fingerprint uint64
	total       uint64
}{
	{
		name: "interp-jit-off",
		body: func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			vm.JITEnabled = false
			runStock(ex, vm, d)
		},
		fingerprint: 0xbf9ceac773caa606,
		total:       916612,
	},
	{
		name: "all-compiled",
		body: func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			for _, m := range d.File.Methods {
				vm.ForceCompile(d, m.Name)
			}
			runStock(ex, vm, d)
		},
		fingerprint: 0x8d582514898cf56,
		total:       580899,
	},
	{
		name: "compiled-calls-interpreted",
		body: func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			vm.ForceCompile(d, "callHeavy")
			vm.Exec(ex, d, "callHeavy", 400)
			vm.ForceCompile(d, "helper")
			vm.Exec(ex, d, "callHeavy", 400)
		},
		fingerprint: 0x31131cc2d974dbf4,
		total:       388083,
	},
	{
		name: "compiled-jit-off",
		body: func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			vm.ForceCompile(d, "sumLoop")
			vm.JITEnabled = false
			vm.Exec(ex, d, "sumLoop", 5000)
		},
		fingerprint: 0xf693576c600258cf,
		total:       447013,
	},
	{
		name:     "switchover-services",
		services: true,
		body: func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			vm.Exec(ex, d, "sumLoop", 40_000)
			vm.Exec(ex, d, "objectChurn", 2000)
			vm.Exec(ex, d, "callHeavy", 300)
		},
		fingerprint: 0xa2f5ad45a72ad5ac,
		total:       36243476,
	},
}

// TestDispatchAttributionGolden holds every interpreted/compiled mix to
// its recorded attribution: which regions each bytecode charges (libdvm.so
// and a dex read when interpreted, the JIT code cache and no dex read when
// compiled), where mid-method promotion happens, and when trace requests
// are sent.
func TestDispatchAttributionGolden(t *testing.T) {
	for _, g := range dispatchGolden {
		done := false
		k := harness(t, g.services, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
			g.body(ex, vm, d)
			done = true
		})
		if !done {
			t.Fatalf("%s: body did not finish within the simulated run", g.name)
		}
		if fp, total := k.Stats.Fingerprint(), k.Stats.Total(); fp != g.fingerprint || total != g.total {
			t.Errorf("%s: fingerprint %#x total %d, want %#x %d", g.name, fp, total, g.fingerprint, g.total)
		}
	}
}

// TestInterpBulkZeroMethodDex guards the trace-discovery path against a
// method-less image: dex.Verify now rejects those, but a hand-built File
// must still not divide InterpBulk by zero.
func TestInterpBulkZeroMethodDex(t *testing.T) {
	k := harness(t, true, func(ex *kernel.Exec, vm *VM, d *LoadedDex) {
		ed := vm.LoadDex(ex, dex.NewFile("empty"))
		vm.InterpBulk(ex, ed, 60_000, false) // crosses traceEvery twice
	})
	if got := k.Stats.ByRegion(stats.IFetch)["libdvm.so"]; got < 60_000 {
		t.Fatalf("libdvm.so fetches = %d, want >= bulk bytecode count", got)
	}
}
