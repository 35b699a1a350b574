package android

import (
	"testing"

	"agave/internal/gfx"
	"agave/internal/kernel"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

func bootSystem(t *testing.T) (*kernel.Kernel, *System) {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: 100 * sim.Microsecond, Seed: 11})
	t.Cleanup(k.Shutdown)
	return k, Boot(k)
}

func TestBootProcessCensus(t *testing.T) {
	k, _ := bootSystem(t)
	k.Run(100 * sim.Millisecond)
	want := []string{
		"swapper", "ata_sff/0", "init", "servicemanager", "zygote",
		"system_server", "mediaserver", "ndroid.launcher", "ndroid.systemui",
		"rild", "vold", "netd", "installd", "adbd",
	}
	for _, name := range want {
		if k.FindProcess(name) == nil {
			t.Errorf("boot did not create process %q", name)
		}
	}
	if n := k.ProcessCount(); n < 18 {
		t.Errorf("boot process count = %d, want >= 18 (paper floor ~20 with app)", n)
	}
}

func TestBootSurfaceFlingerComposes(t *testing.T) {
	k, sys := bootSystem(t)
	k.Run(300 * sim.Millisecond)
	if sys.Compositor.Frames == 0 {
		t.Fatal("SurfaceFlinger composed nothing (launcher/systemui should post)")
	}
	byThread := k.Stats.ByThread()
	if byThread["SurfaceFlinger"] == 0 {
		t.Fatal("SurfaceFlinger thread earned no references")
	}
	byRegion := k.Stats.ByRegion(stats.DataWrite)
	if byRegion[mem.RegionFramebuffer] == 0 {
		t.Fatal("no framebuffer writes")
	}
	if byRegion[mem.RegionGralloc] == 0 {
		t.Fatal("no gralloc writes")
	}
}

func TestAppLaunchLifecycle(t *testing.T) {
	k, sys := bootSystem(t)
	ran := false
	app := sys.NewApp(AppConfig{
		Process: "benchmark", Label: "test.app",
		Fullscreen: true, Foreground: true, AsyncWorkers: 2, Helpers: 1,
	})
	app.Start(func(ex *kernel.Exec, a *App) {
		a.EnsureSurface(ex)
		if a.Surface == nil {
			t.Error("no surface for foreground app")
		}
		a.Canvas.FillRect(ex, 400, 200)
		a.Surface.Post(ex, sys.Compositor)
		if got := a.VM.Exec(ex, a.Dex, "sumLoop", 10); got != 45 {
			t.Errorf("app bytecode sumLoop(10) = %d", got)
		}
		ran = true
	})
	k.Run(400 * sim.Millisecond)
	if !ran {
		t.Fatal("app main body never ran")
	}
	if k.FindProcess("app_process") == nil {
		t.Fatal("helper app_process not forked")
	}
	if sys.Launcher.Surface == nil || sys.Launcher.Surface.Visible {
		t.Fatal("fullscreen app did not hide the launcher")
	}
	if got := k.Stats.ByProcess()["benchmark"]; got == 0 {
		t.Fatal("benchmark process earned no references")
	}
	if got := k.Stats.ByRegion(stats.DataRead)["test.app@classes.dex"]; got == 0 {
		t.Fatal("app dex image never read")
	}
}

func TestAsyncPoolRunsTasks(t *testing.T) {
	k, sys := bootSystem(t)
	app := sys.NewApp(AppConfig{Process: "benchmark", Label: "t", AsyncWorkers: 2})
	count := 0
	app.Start(func(ex *kernel.Exec, a *App) {
		for i := 0; i < 5; i++ {
			a.Tasks.Submit(ex, func(ex *kernel.Exec) {
				ex.StackWork(500)
				count++
			})
		}
		ex.SleepFor(50 * sim.Millisecond)
	})
	k.Run(200 * sim.Millisecond)
	if count != 5 {
		t.Fatalf("async tasks ran %d/5", count)
	}
	if got := k.Stats.ByThread()["AsyncTask"]; got == 0 {
		t.Fatal("AsyncTask group earned no references")
	}
}

func TestWorkerThreadsGroupAsThread(t *testing.T) {
	k, sys := bootSystem(t)
	app := sys.NewApp(AppConfig{Process: "benchmark", Label: "t"})
	app.Start(func(ex *kernel.Exec, a *App) {
		a.SpawnWorker(func(ex *kernel.Exec, a *App) {
			ex.StackWork(10_000)
		})
		ex.SleepFor(20 * sim.Millisecond)
	})
	k.Run(100 * sim.Millisecond)
	if got := k.Stats.ByThread()["Thread"]; got == 0 {
		t.Fatal("generic worker did not account to the Thread group")
	}
}

func TestLooperTryDrainInPostOrder(t *testing.T) {
	k, sys := bootSystem(t)
	app := sys.NewApp(AppConfig{Process: "benchmark", Label: "t"})
	var got []int
	var drained [3]int
	app.Start(func(ex *kernel.Exec, a *App) {
		lp := NewLooper(k, "test")
		for what := 1; what <= 3; what++ {
			lp.Post(ex, Message{What: what})
		}
		record := func(ex *kernel.Exec, m Message) { got = append(got, m.What) }
		drained[0] = lp.TryDrain(ex, 2, record)
		drained[1] = lp.TryDrain(ex, 2, record)
		drained[2] = lp.TryDrain(ex, 2, record)
	})
	k.Run(100 * sim.Millisecond)
	if drained != [3]int{2, 1, 0} {
		t.Fatalf("TryDrain(2) returned %v, want [2 1 0]", drained)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("looper dispatched %v, want [1 2 3]", got)
	}
}

func TestInstallAPKSpawnsDexoptAndDefcontainer(t *testing.T) {
	k, sys := bootSystem(t)
	app := sys.NewApp(AppConfig{Process: "benchmark", Label: "pm"})
	installed := false
	app.Start(func(ex *kernel.Exec, a *App) {
		done := sys.InstallAPK(ex, a, "com.example.pkg", 2<<20)
		done.Wait(ex)
		installed = true
	})
	k.Run(2 * sim.Second)
	if !installed {
		t.Fatal("install never completed")
	}
	if k.FindProcess("dexopt") == nil {
		t.Fatal("dexopt process missing")
	}
	if k.FindProcess("id.defcontainer") == nil {
		t.Fatal("id.defcontainer process missing")
	}
	byProc := k.Stats.ByProcess()
	if byProc["dexopt"] == 0 {
		t.Fatal("dexopt earned no references")
	}
	if byProc["id.defcontainer"] == 0 {
		t.Fatal("id.defcontainer earned no references")
	}
}

func TestMediaPlaybackThroughBinder(t *testing.T) {
	k, sys := bootSystem(t)
	app := sys.NewApp(AppConfig{Process: "benchmark", Label: "music", Foreground: true})
	app.Start(func(ex *kernel.Exec, a *App) {
		p, err := mediaOpen(ex, sys, "mp3")
		if err != nil {
			t.Error(err)
			return
		}
		if err := p.Start(ex, sys.Binder); err != nil {
			t.Error(err)
		}
	})
	k.Run(600 * sim.Millisecond)
	if sys.Media.MP3FramesDecoded == 0 {
		t.Fatal("no MP3 frames decoded")
	}
	byProc := k.Stats.ByProcess()
	if byProc["mediaserver"] == 0 {
		t.Fatal("mediaserver earned no references")
	}
	if got := k.Stats.ByThread()["AudioTrackThread"]; got == 0 {
		t.Fatal("AudioTrackThread earned no references")
	}
	if got := k.Stats.ByRegion(stats.IFetch)[("libstagefright.so")]; got == 0 {
		t.Fatal("no decoder fetches from libstagefright.so")
	}
}

func TestVsyncIdleWhenNothingPosts(t *testing.T) {
	k := kernel.New(kernel.Config{Quantum: 100 * sim.Microsecond, Seed: 3})
	defer k.Shutdown()
	// Bare compositor without launcher/systemui: nothing ever posts.
	ss := k.NewProcess("system_server", 1<<20, 1<<20)
	lm := loaderLoadForTest(ss)
	c := gfx.NewCompositor(ss, lm)
	k.Run(200 * sim.Millisecond)
	if c.Frames != 0 {
		t.Fatalf("compositor composed %d frames with no posts", c.Frames)
	}
}

func TestBootDeterminism(t *testing.T) {
	run := func() uint64 {
		k := kernel.New(kernel.Config{Quantum: 100 * sim.Microsecond, Seed: 11})
		defer k.Shutdown()
		Boot(k)
		k.Run(150 * sim.Millisecond)
		return k.Stats.Total()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("boot runs diverged: %d vs %d", a, b)
	}
}
