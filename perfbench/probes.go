package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"agave/internal/android"
	"agave/internal/binder"
	"agave/internal/cpu"
	"agave/internal/dalvik"
	"agave/internal/fleet"
	"agave/internal/gfx"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
	"agave/internal/suite"
)

// perLayer are the metrics of a traced run. Every traced run reports all of
// them: the spans and counts of its own workload come from its timed ops,
// those of the other two workloads from one traced round of each, and the
// probes are the same for every workload.
var perLayer = []metricDef{
	// paper-sweep: spans around the calls core.RunAgave / core.RunSPEC make.
	{"android.boot_ms", "ms", "lower"},
	{"apps.launch_ms", "ms", "lower"},
	{"kernel.warmup_ms", "ms", "lower"},
	{"kernel.measure_ms_per_sim_s", "ms/s", "lower"},
	{"kernel.shutdown_ms", "ms", "lower"},
	{"spec.run_ms_per_sim_s", "ms/s", "lower"},
	{"report.figures_ms", "ms", "lower"},
	{"suite.overhead_us_per_op", "us", "lower"},
	{"cpu.handoff_ns", "ns", "lower"},
	{"gfx.compose_us", "us", "lower"},
	{"dalvik.interp_ns", "ns", "lower"},
	{"dalvik.jit_ns", "ns", "lower"},
	{"stats.account_ns", "ns", "lower"},
	{"gfx.frames_per_op", "count", "higher"},
	{"dalvik.compiles_per_op", "count", "lower"},
	{"stats.refs_per_op", "count", "lower"},
	{"stats.cells_per_op", "count", "lower"},
	// dense-session
	{"scenario.gen_ms", "ms", "lower"},
	{"core.alloc_mb_per_op", "MB", "lower"},
	{"core.gc_cpu_pct", "%", "lower"},
	{"cpu.sched_wait_ns_p50", "ns", "lower"},
	{"mem.map_us", "us", "lower"},
	{"mem.clone_us", "us", "lower"},
	{"kernel.fork_us", "us", "lower"},
	{"kernel.kill_us_per_thread", "us", "lower"},
	{"kernel.wake_ns", "ns", "lower"},
	{"binder.call_ns", "ns", "lower"},
	{"android.looper_ns", "ns", "lower"},
	{"kernel.processes_per_op", "count", "lower"},
	{"kernel.threads_per_op", "count", "lower"},
	{"kernel.lmk_kills_per_op", "count", "lower"},
	{"android.inputs_dispatched_per_op", "count", "higher"},
	// fleet-sweep
	{"fleet.worker_start_ms", "ms", "lower"},
	{"fleet.worker_spec_ms", "ms", "lower"},
	{"fleet.worker_busy_frac", "ratio", "higher"},
	{"fleet.checkpoint_append_ms", "ms", "lower"},
	{"fleet.fold_ns_per_line", "ns", "lower"},
	{"scenario.decode_us", "us", "lower"},
	{"fleet.worker_rss_mb", "MB", "lower"},
	{"fleet.shards_per_op", "count", "lower"},
	{"fleet.lines_per_op", "count", "lower"},
}

// traceRest completes a traced run after its timed ops: one traced round of
// each other workload, then every probe. It returns the per-layer metrics.
func (b *bench) traceRest(main workload) (map[string]float64, error) {
	var fs *fleetSweep
	var dense *denseSession
	for _, wl := range workloads {
		w := main
		if wl.name != b.cfg.workload {
			w = wl.build(b)
			if _, err := b.setUp(w, 1); err != nil {
				return nil, err
			}
			if err := w.round(false); err != nil {
				return nil, err
			}
		}
		switch w := w.(type) {
		case *fleetSweep:
			fs = w
		case *denseSession:
			dense = w
		}
	}
	if err := b.runProbes(layerProbes); err != nil {
		return nil, err
	}
	if err := b.runProbes(fs.probes()); err != nil {
		return nil, err
	}

	layers := map[string]float64{}
	for name, vs := range b.layer {
		layers[name] = median(vs)
	}
	for name, vs := range b.counts {
		var sum float64
		for _, v := range vs {
			sum += v
		}
		layers[name] = sum / float64(len(vs))
	}
	layers["core.gc_cpu_pct"], layers["cpu.sched_wait_ns_p50"] = dense.runtimeMetrics()
	if b.slotNS > 0 {
		layers["fleet.worker_busy_frac"] = float64(b.busyNS) / float64(b.slotNS)
	}
	layers["fleet.worker_rss_mb"] = fs.workerRSSMB
	for _, m := range perLayer {
		if _, ok := layers[m.name]; !ok {
			return nil, fmt.Errorf("traced run measured no %s", m.name)
		}
	}
	return layers, nil
}

// probe drives one layer's public API on a bare or freshly booted machine
// and returns the host cost of one unit of its work. It checks its own
// result, so a broken probe fails instead of reporting a fast number.
type probe struct {
	metric string
	run    func(div int) (float64, error)
}

// probeReps repeats each probe; the metric is the median repetition.
const probeReps = 5

func (b *bench) runProbes(probes []probe) error {
	for _, p := range probes {
		id := b.rec.begin("probe "+p.metric, -1, -1)
		for i := 0; i < probeReps; i++ {
			v, err := p.run(b.cfg.sizes.probeDiv)
			if err != nil {
				return fmt.Errorf("probe %s: %w", p.metric, err)
			}
			b.note(p.metric, v)
		}
		b.rec.end(id)
	}
	return nil
}

var layerProbes = []probe{
	{"cpu.handoff_ns", probeHandoff},
	{"stats.account_ns", probeAccount},
	{"dalvik.interp_ns", func(div int) (float64, error) { return probeDalvik(div, false) }},
	{"dalvik.jit_ns", func(div int) (float64, error) { return probeDalvik(div, true) }},
	{"gfx.compose_us", probeCompose},
	{"mem.map_us", probeMap},
	{"mem.clone_us", probeClone},
	{"kernel.fork_us", probeFork},
	{"kernel.kill_us_per_thread", probeKill},
	{"kernel.wake_ns", probeWake},
	{"binder.call_ns", probeBinder},
	{"android.looper_ns", probeLooper},
}

func perUnit(d time.Duration, units int, scale float64) float64 {
	return float64(d.Nanoseconds()) / float64(units) / scale
}

// probeHandoff times cpu.Context.Run granting a one-tick quantum that the
// thread's Charge immediately yields back: one grant/yield round trip.
func probeHandoff(div int) (float64, error) {
	n := 200_000 / div
	c := cpu.NewContext()
	charges := 0
	c.Start(func(any) {
		for {
			charges++
			c.Charge(1)
		}
	}, nil)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if y := c.Run(1); y.Reason != cpu.YieldQuantum {
			return 0, fmt.Errorf("yield %v, want quantum", y.Reason)
		}
	}
	d := time.Since(t0)
	c.Kill()
	if charges != n {
		return 0, fmt.Errorf("%d charges for %d grants", charges, n)
	}
	return perUnit(d, n, 1), nil
}

// probeAccount times Exec.Fetch/Read/Write on a bare kernel whose 1 µs
// quantum flushes the thread's batched counts into the collector every 1000
// iterations.
func probeAccount(div int) (float64, error) {
	n := 300_000 / div
	k := kernel.New(kernel.Config{Quantum: sim.Microsecond, Seed: 1})
	defer k.Shutdown()
	p := k.NewProcess("probe", 1<<20, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		for i := 0; i < n; i++ {
			ex.Fetch(1)
			ex.Read(p.Layout.Heap, 1)
			ex.Write(p.Layout.Heap, 1)
		}
	})
	t0 := time.Now()
	k.Run(sim.Ticks(n) + sim.Millisecond)
	d := time.Since(t0)
	for _, kind := range []stats.Kind{stats.IFetch, stats.DataRead, stats.DataWrite} {
		if got := k.Stats.ByProcess(kind)["probe"]; got != uint64(n) {
			return 0, fmt.Errorf("%v count %d, want %d", kind, got, n)
		}
	}
	return perUnit(d, 3*n, 1), nil
}

// probeDalvik times VM.Exec(sumLoop) per bytecode, interpreted with the JIT
// off or force-compiled.
func probeDalvik(div int, jit bool) (float64, error) {
	const n = 20_000
	const bytecodes = 4*n + 4 // sumLoop's dynamic instruction count
	calls := max(1, 40/div)
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 7})
	defer k.Shutdown()
	p := k.NewProcess("benchmark", 1<<20, 1<<20)
	lm := loader.Load(p.AS, p.Layout, loader.BaseSet())
	vm := dalvik.Attach(p, lm, false)
	var d time.Duration
	var err error
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		dx := vm.LoadDex(ex, dalvik.StockDex("benchmark"))
		if jit {
			vm.ForceCompile(dx, "sumLoop")
		} else {
			vm.JITEnabled = false
		}
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			if got := vm.Exec(ex, dx, "sumLoop", n); got != int64(n)*(n-1)/2 {
				err = fmt.Errorf("sumLoop(%d) = %d", n, got)
				return
			}
		}
		d = time.Since(t0)
	})
	k.Run(1 << 62)
	if err != nil {
		return 0, err
	}
	return perUnit(d, calls*bytecodes, 1), nil
}

// probeCompose boots the stack, posts one fullscreen surface every vsync,
// and times the machine per composed frame.
func probeCompose(div int) (float64, error) {
	window := 600 * sim.Millisecond / sim.Ticks(div)
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	sys := android.Boot(k)
	p := k.NewProcess("probe", 64<<10, 1<<20)
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		s := sys.Compositor.CreateSurface(ex, p, "probe", gfx.ScreenW, gfx.ScreenH, 100)
		for {
			s.Post(ex, sys.Compositor)
			ex.SleepFor(gfx.VsyncPeriod)
		}
	})
	warm := 100 * sim.Millisecond
	k.Run(warm)
	f0 := sys.Compositor.Frames
	t0 := time.Now()
	k.Run(warm + window)
	d := time.Since(t0)
	frames := sys.Compositor.Frames - f0
	if vsyncs := uint64(window / gfx.VsyncPeriod); frames+1 < vsyncs || frames == 0 {
		return 0, fmt.Errorf("%d frames composed in %d vsyncs", frames, vsyncs)
	}
	return perUnit(d, int(frames), 1e3), nil
}

// bootZygote boots a stack and returns it with the zygote's address space.
func bootZygote() (*kernel.Kernel, *android.System) {
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	sys := android.Boot(k)
	k.Run(sim.Millisecond) // zygote's preload maps its arenas
	return k, sys
}

// probeMap times MapAnywhere + Unmap of a thread-stack-sized mapping in a
// clone of the booted zygote's address space: the gap scan every app launch
// repeats.
func probeMap(div int) (float64, error) {
	n := 20_000 / div
	k, sys := bootZygote()
	defer k.Shutdown()
	as := sys.Zygote.AS.Clone()
	count := as.Count()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		v := as.MapAnywhere(mem.MmapBase, mem.ThreadStackSize, "probe", mem.PermRead|mem.PermWrite, mem.ClassAnon)
		if as.Find(v.Start) != v {
			return 0, fmt.Errorf("mapping at %#x not found", v.Start)
		}
		if err := as.Unmap(v); err != nil {
			return 0, err
		}
	}
	d := time.Since(t0)
	if as.Count() != count {
		return 0, fmt.Errorf("%d VMAs after map/unmap, want %d", as.Count(), count)
	}
	return perUnit(d, n, 1e3), nil
}

// probeClone times AddressSpace.Clone of the booted zygote's address space.
func probeClone(div int) (float64, error) {
	n := 5_000 / div
	k, sys := bootZygote()
	defer k.Shutdown()
	want := sys.Zygote.AS.Count()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if c := sys.Zygote.AS.Clone(); c.Count() != want {
			return 0, fmt.Errorf("clone has %d VMAs, zygote %d", c.Count(), want)
		}
	}
	return perUnit(time.Since(t0), n, 1e3), nil
}

// probeFork times Kernel.Fork of the zygote plus KillProcess of the child.
func probeFork(div int) (float64, error) {
	n := 2_000 / div
	k, sys := bootZygote()
	defer k.Shutdown()
	procs := k.ProcessCount()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k.KillProcess(k.Fork(sys.Zygote, "probe"))
	}
	d := time.Since(t0)
	if got := k.ProcessCount(); got != procs+n {
		return 0, fmt.Errorf("census %d after %d forks, want %d", got, n, procs+n)
	}
	return perUnit(d, n, 1e3), nil
}

// probeKill times KillProcess of processes whose threads are all blocked on
// a wait queue, per thread.
func probeKill(div int) (float64, error) {
	const threads = 32
	procs := 200 / div
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	var d time.Duration
	for i := 0; i < procs; i++ {
		p := k.NewProcess("probe", 64<<10, 64<<10)
		wq := k.NewWaitQueue("probe")
		for j := 0; j < threads; j++ {
			k.SpawnThread(p, "blocked", "blocked", func(ex *kernel.Exec) { ex.Wait(wq) })
		}
		k.Run(k.Clock.Now() + sim.Millisecond)
		if wq.Waiters() != threads {
			return 0, fmt.Errorf("%d of %d threads blocked", wq.Waiters(), threads)
		}
		t0 := time.Now()
		k.KillProcess(p)
		d += time.Since(t0)
		if p.LiveThreads() != 0 {
			return 0, fmt.Errorf("%d threads alive after kill", p.LiveThreads())
		}
	}
	return perUnit(d, procs*threads, 1e3), nil
}

// probeWake times two threads handing a token back and forth through
// WaitQueue.WakeOne / Exec.Wait under Kernel.Run, per wake.
func probeWake(div int) (float64, error) {
	n := 50_000 / div
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	p := k.NewProcess("probe", 64<<10, 64<<10)
	ping, pong := k.NewWaitQueue("ping"), k.NewWaitQueue("pong")
	turn, passes := 0, 0
	k.SpawnThread(p, "ping", "ping", func(ex *kernel.Exec) {
		for i := 0; i < n; i++ {
			turn = 1
			pong.WakeOne()
			for turn != 0 {
				ex.Wait(ping)
			}
		}
	})
	k.SpawnThread(p, "pong", "pong", func(ex *kernel.Exec) {
		for i := 0; i < n; i++ {
			for turn != 1 {
				ex.Wait(pong)
			}
			passes++
			turn = 0
			ping.WakeOne()
		}
	})
	t0 := time.Now()
	k.Run(1 << 62)
	d := time.Since(t0)
	if passes != n {
		return 0, fmt.Errorf("%d passes, want %d", passes, n)
	}
	return perUnit(d, 2*n, 1), nil
}

// probeBinder times Driver.Call round trips to a one-thread service that
// replies with its argument plus one.
func probeBinder(div int) (float64, error) {
	n := 30_000 / div
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	d := binder.NewDriver(k)
	server := k.NewProcess("probe-server", 64<<10, 64<<10)
	d.Register(server, "probe", 1, func(ex *kernel.Exec, txn *binder.Transaction) {
		v, err := txn.Data.ReadInt64()
		if err != nil {
			v = -1
		}
		txn.Reply = binder.NewParcel()
		txn.Reply.WriteInt64(v + 1)
	})
	client := k.NewProcess("probe-client", 64<<10, 64<<10)
	var elapsed time.Duration
	var err error
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			data := binder.NewParcel()
			data.WriteInt64(int64(i))
			reply, cerr := d.Call(ex, "probe", 1, data)
			if cerr != nil {
				err = cerr
				return
			}
			if v, rerr := reply.ReadInt64(); rerr != nil || v != int64(i)+1 {
				err = fmt.Errorf("reply %d (%v), want %d", v, rerr, i+1)
				return
			}
		}
		elapsed = time.Since(t0)
	})
	k.Run(1 << 62)
	if err != nil {
		return 0, err
	}
	return perUnit(elapsed, n, 1), nil
}

// probeLooper times Looper.Post + TryDrain per message.
func probeLooper(div int) (float64, error) {
	const batch = 16
	batches := 10_000 / div
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	defer k.Shutdown()
	p := k.NewProcess("probe", 64<<10, 64<<10)
	l := android.NewLooper(k, "probe")
	drained := 0
	var elapsed time.Duration
	k.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		count := func(*kernel.Exec, android.Message) { drained++ }
		t0 := time.Now()
		for i := 0; i < batches; i++ {
			for j := 0; j < batch; j++ {
				l.Post(ex, android.Message{What: 1, Arg: int64(j)})
			}
			l.TryDrain(ex, batch, count)
		}
		elapsed = time.Since(t0)
	})
	k.Run(1 << 62)
	if drained != batches*batch {
		return 0, fmt.Errorf("drained %d messages, want %d", drained, batches*batch)
	}
	return perUnit(elapsed, batches*batch, 1), nil
}

// probes returns the fleet probes, which replay the last traced sweep's
// journal, result lines and plan documents.
func (f *fleetSweep) probes() []probe {
	return []probe{
		{"fleet.checkpoint_append_ms", f.probeAppend},
		{"fleet.fold_ns_per_line", f.probeFold},
		{"scenario.decode_us", f.probeDecode},
	}
}

func (f *fleetSweep) header() fleet.Header {
	return fleet.Header{PlanHash: f.hash, Runs: f.total, Shards: suite.NumShards(f.total, f.spec.ShardSize), ShardSize: f.spec.ShardSize}
}

// probeAppend appends the last sweep's shard results to a fresh journal,
// fsync included, and times each Append.
func (f *fleetSweep) probeAppend(div int) (float64, error) {
	partials, cp, err := fleet.OpenCheckpoint(f.last.journal, f.header())
	if err != nil {
		return 0, err
	}
	cp.Close()
	reps := max(1, 4/div)
	path := filepath.Join(f.b.scratch, "probe.ckpt")
	defer os.Remove(path)
	var d time.Duration
	for r := 0; r < reps; r++ {
		cp, err := fleet.CreateCheckpoint(path, f.header())
		if err != nil {
			return 0, err
		}
		for _, p := range partials {
			t0 := time.Now()
			err := cp.Append(p)
			d += time.Since(t0)
			if err != nil {
				cp.Close()
				return 0, err
			}
		}
		if err := cp.Close(); err != nil {
			return 0, err
		}
	}
	got, cp, err := fleet.OpenCheckpoint(path, f.header())
	if err != nil {
		return 0, err
	}
	cp.Close()
	if len(got) != len(partials) {
		return 0, fmt.Errorf("journal holds %d shard results, appended %d", len(got), len(partials))
	}
	return perUnit(d, reps*len(partials), 1e6), nil
}

// probeFold times DecodeLine + Aggregator.Observe over the last sweep's
// result lines, folded shard by shard through a fresh aggregator; the fold
// must reproduce the sweep's fingerprint.
func (f *fleetSweep) probeFold(div int) (float64, error) {
	reps := max(1, 100/div)
	size := f.spec.ShardSize
	var line fleet.Line
	var fp string
	var d time.Duration
	for r := 0; r < reps; r++ {
		agg := fleet.NewAggregator(f.total, size, f.hash)
		for i, raw := range f.last.lines {
			t0 := time.Now()
			err := fleet.DecodeLine(raw, &line)
			if err == nil {
				err = agg.Observe(i/size, raw, &line)
			}
			d += time.Since(t0)
			if err != nil {
				return 0, err
			}
			if i%size == size-1 || i == len(f.last.lines)-1 {
				if _, err := agg.FinishShard(i/size, -1, ""); err != nil {
					return 0, err
				}
			}
		}
		rep, err := agg.Report()
		if err != nil {
			return 0, err
		}
		fp = rep.Fingerprint
	}
	if fp != f.last.fingerprint {
		return 0, fmt.Errorf("fold fingerprint %s, sweep %s", fp, f.last.fingerprint)
	}
	return perUnit(d, reps*len(f.last.lines), 1), nil
}

// probeDecode times scenario.Decode of each plan document; every decoded
// scenario must re-encode to the same bytes.
func (f *fleetSweep) probeDecode(div int) (float64, error) {
	reps := max(1, 50/div)
	for _, doc := range f.docs {
		sc, err := scenario.Decode(doc)
		if err != nil {
			return 0, err
		}
		enc, err := scenario.Encode(sc)
		if err != nil {
			return 0, err
		}
		if !bytes.Equal(bytes.TrimSpace(enc), bytes.TrimSpace(doc)) {
			return 0, fmt.Errorf("scenario %s does not re-encode to its document", sc.Name)
		}
	}
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		for _, doc := range f.docs {
			if _, err := scenario.Decode(doc); err != nil {
				return 0, err
			}
		}
	}
	return perUnit(time.Since(t0), reps*len(f.docs), 1e3), nil
}
