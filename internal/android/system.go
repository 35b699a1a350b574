package android

import (
	"agave/internal/binder"
	"agave/internal/dalvik"
	"agave/internal/dex"
	"agave/internal/gfx"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/media"
	"agave/internal/mem"
	"agave/internal/sim"
)

// System is the booted Android stack: every resident process a Gingerbread
// device runs before any application starts. The paper's Figures 3 and 4
// decompose references over exactly this process population (plus the
// benchmark's own processes).
type System struct {
	K      *kernel.Kernel
	Binder *binder.Driver

	Zygote   *kernel.Process
	ZygoteVM *dalvik.VM
	zygoteLM *loader.LinkMap

	SystemServer   *kernel.Process
	SystemServerVM *dalvik.VM

	Compositor *gfx.Compositor
	Media      *media.Server

	// Input is the input-event pipeline: Inject* queues synthetic events,
	// the InputDispatcher thread in system_server routes them to the
	// focused app's looper, and InputStats reports the outcome.
	Input *InputDispatcher

	// Inject is the fault-injection plane and dependability scoreboard:
	// armed binder faults, crash/recovery bookkeeping, and the ANR count
	// the AnrWatchdog accumulates.
	Inject *Injector

	// FrameworkFile is the synthetic framework bytecode zygote preloads;
	// its image lives in the "framework.jar@classes.dex" mapping.
	FrameworkFile *dex.File

	Launcher *App
	SystemUI *App

	// launcherHidden is sticky: a fullscreen app may request hiding
	// before the launcher has finished creating its surface.
	launcherHidden bool

	// ActivityManager process records: every app not yet reaped, in
	// creation order (noteDead removes the dead), the current foreground
	// activity, and the cached-app LRU (most recent first) the oom_adj
	// ladder is computed from.
	amApps       []*App
	amForeground *App
	amCached     []*App

	// servicesDex is system_server's framework image, kept for the
	// memory-management threads' bookkeeping work.
	servicesDex *dalvik.LoadedDex

	// trims counts onTrimMemory callbacks delivered to apps.
	trims int
}

// Trims reports how many onTrimMemory callbacks the ActivityManager has
// delivered this run.
func (sys *System) Trims() int { return sys.trims }

// nativeDaemons is the resident daemon population of a Gingerbread device;
// together with init/servicemanager/zygote/system_server/mediaserver and the
// kernel threads, it brings the boot-time process census to the paper's
// ~20-process floor.
var nativeDaemons = []struct {
	name     string
	interval sim.Ticks
	burst    uint64
}{
	{"rild", 200 * sim.Millisecond, 1800},
	{"vold", 400 * sim.Millisecond, 1200},
	{"netd", 300 * sim.Millisecond, 1400},
	{"installd", 500 * sim.Millisecond, 800},
	{"debuggerd", 800 * sim.Millisecond, 400},
	{"adbd", 250 * sim.Millisecond, 1000},
	{"keystore", 900 * sim.Millisecond, 500},
	{"dbus-daemon", 350 * sim.Millisecond, 900},
	{"akmd", 150 * sim.Millisecond, 1100},
}

// Boot brings the stack up: kernel threads already exist (swapper,
// ata_sff/0); Boot adds init, the native daemons, servicemanager, zygote
// (with the preloaded framework), system_server (hosting SurfaceFlinger and
// the core services), mediaserver, and the launcher and systemui apps.
func Boot(k *kernel.Kernel) *System {
	sys := &System{K: k, Binder: binder.NewDriver(k)}
	sys.Input = newInputDispatcher(sys)
	sys.Inject = newInjector(sys)
	sys.Binder.SetFaultHook(sys.Inject.faultHook)

	// init and the native daemon population.
	initP := k.NewProcess("init", 96*loader.KB, 256*loader.KB)
	heartbeat(initP, 500*sim.Millisecond, 1500)
	for _, d := range nativeDaemons {
		p := k.NewProcess(d.name, 128*loader.KB, 256*loader.KB)
		heartbeat(p, d.interval, d.burst)
	}

	// servicemanager: the Binder context manager.
	smP := k.NewProcess("servicemanager", 32*loader.KB, 64*loader.KB)
	heartbeat(smP, 400*sim.Millisecond, 600)

	// Zygote: preloaded library set + Dalvik VM + framework bytecode.
	sys.Zygote = k.NewProcess("zygote", 64*loader.KB, 2<<20)
	sys.zygoteLM = loader.Load(sys.Zygote.AS, sys.Zygote.Layout, loader.BaseSet())
	sys.ZygoteVM = dalvik.Attach(sys.Zygote, sys.zygoteLM, false)
	sys.FrameworkFile = dalvik.StockDex("framework.jar")
	k.SpawnThread(sys.Zygote, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(sys.Zygote.Layout.Text)
		fw := sys.ZygoteVM.Adopt(sys.FrameworkFile, sys.zygoteLM.VMA("framework.jar@classes.dex"))
		// Preload classes: populate LinearAlloc and warm the heap, the
		// work `zygote --start-system-server` does at boot.
		ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: sys.ZygoteVM.Linear}, 80_000)
		sys.ZygoteVM.Exec(ex, fw, "sumLoop", 500)
		sys.ZygoteVM.Exec(ex, fw, "fillArray", 400)
		// Zygote then parks in its fork-request select loop.
		ex.Wait(k.NewWaitQueue("zygote.forkreq"))
	})

	// system_server: forked from zygote, hosting SurfaceFlinger and the
	// core services.
	sys.SystemServer = k.Fork(sys.Zygote, "system_server")
	ssLM := loader.Rebind(sys.SystemServer.AS, sys.SystemServer.Layout, loader.SystemServerSet())
	sys.SystemServerVM = dalvik.ForkVM(sys.ZygoteVM, sys.SystemServer, true)
	sys.Compositor = gfx.NewCompositor(sys.SystemServer, ssLM)
	sys.startCoreServices(ssLM)

	// mediaserver: a native (non-zygote) service process.
	sys.startMediaserver()

	// Home screen and status bar.
	sys.Launcher = sys.NewApp(AppConfig{
		Process: "ndroid.launcher", Label: "launcher",
		Fullscreen: true, Foreground: true, AsyncWorkers: 2,
	})
	sys.Launcher.Start(launcherMain)
	sys.SystemUI = sys.NewApp(AppConfig{
		Process: "ndroid.systemui", Label: "systemui",
		Foreground: true, AsyncWorkers: 1, StatusBar: true,
	})
	sys.SystemUI.Start(systemUIMain)
	if k.LMKEnabled() {
		sys.startMemoryManagement()
	}
	return sys
}

// startMediaserver boots (or, after a CrashMediaserver, reboots) the
// mediaserver process: a fresh kernel process, the media library set, the
// media.Server with its "media.player" registration, and the Open lookup
// mapping. The sequence charges no simulated work, so no other thread can
// observe a half-started server.
func (sys *System) startMediaserver() {
	msP := sys.K.NewProcess("mediaserver", 64*loader.KB, 1<<20)
	msLM := loader.Load(msP.AS, msP.Layout, loader.MediaServerSet())
	sys.Media = media.NewServer(msP, msLM, sys.Binder, sys.Compositor)
	media.RegisterLookup(sys.Binder, sys.Media)
}

// startCoreServices registers the Binder services system_server exposes and
// its resident service threads.
func (sys *System) startCoreServices(ssLM *loader.LinkMap) {
	k := sys.K
	ss := sys.SystemServer
	vm := sys.SystemServerVM
	servicesDex := vm.Adopt(dalvik.StockDex("services.jar"), ssLM.VMA("services.jar@classes.dex"))
	sys.servicesDex = servicesDex

	frameworkCall := func(cost uint64) binder.Handler {
		return func(ex *kernel.Exec, txn *binder.Transaction) {
			vm.InterpBulk(ex, servicesDex, cost, false)
			txn.Reply = binder.NewParcel()
			txn.Reply.WriteInt32(0)
		}
	}
	sys.Binder.Register(ss, "activity", 2, frameworkCall(4000))
	sys.Binder.Register(ss, "window", 2, frameworkCall(2500))
	sys.Binder.Register(ss, "package", 2, frameworkCall(6000))

	// Resident service threads: periodic bookkeeping in framework
	// bytecode. These are the system_server threads beyond
	// SurfaceFlinger and the binder pool.
	service := func(name string, period sim.Ticks, cost uint64) {
		k.SpawnThread(ss, name, name, func(ex *kernel.Exec) {
			ex.PushCode(ss.Layout.Text)
			for {
				vm.InterpBulk(ex, servicesDex, cost, false)
				ex.SleepFor(period)
			}
		})
	}
	service("ActivityManager", 120*sim.Millisecond, 2200)
	service("WindowManager", 90*sim.Millisecond, 1800)
	service("PackageManager", 600*sim.Millisecond, 1200)
	service("PowerManagerSer", 450*sim.Millisecond, 500)
	service("android.server.", 200*sim.Millisecond, 900)

	// InputDispatcher: unlike the periodic bookkeeping services it is
	// event-driven — it parks on the input channel and wakes per injected
	// event to resolve the focused window and post into the winning app's
	// looper, charging the dispatch as framework bytecode in system_server.
	k.SpawnThread(ss, "InputDispatcher", "InputDispatcher", func(ex *kernel.Exec) {
		ex.PushCode(ss.Layout.Text)
		for {
			ev := ex.Recv(sys.Input.q).(*InputEvent)
			vm.InterpBulk(ex, servicesDex, 700, false)
			sys.Input.route(ex, ev)
		}
	})

	// AnrWatchdog: the ActivityManager's not-responding detector. Every
	// poll period it walks the process records and ages the head message
	// of each resumed UI app's main looper; one blocked past the dispatch
	// timeout raises an ANR, latched per episode (see Injector.scanForANRs
	// for the predicate and the false-positive reasoning).
	k.SpawnThread(ss, "AnrWatchdog", "AnrWatchdog", func(ex *kernel.Exec) {
		ex.PushCode(ss.Layout.Text)
		for {
			ex.SleepFor(anrPollPeriod)
			sys.Inject.scanForANRs(ex)
		}
	})
}

// launcherMain draws the wallpaper/icon grid once, then idles with a slow
// refresh — it stays behind the foreground application.
func launcherMain(ex *kernel.Exec, a *App) {
	a.EnsureSurface(ex)
	if a.Sys.launcherHidden {
		a.Surface.Visible = false
	}
	a.Canvas.Blit(ex, gfx.ScreenW, gfx.ScreenH) // wallpaper
	for i := 0; i < 16; i++ {
		a.Canvas.Blit(ex, 96, 96) // icon grid
	}
	a.Surface.Post(ex, a.Sys.Compositor)
	for {
		a.VM.InterpBulk(ex, a.FrameworkDex, 1500, false)
		ex.SleepFor(500 * sim.Millisecond)
	}
}

// systemUIMain owns the status bar: a 1 Hz clock redraw keeps a trickle of
// composition alive even when the foreground app is idle or backgrounded.
func systemUIMain(ex *kernel.Exec, a *App) {
	a.EnsureSurface(ex)
	a.Canvas.FillRect(ex, gfx.ScreenW, statusBarH)
	a.Surface.Post(ex, a.Sys.Compositor)
	for {
		a.VM.InterpBulk(ex, a.FrameworkDex, 800, false)
		a.Canvas.FillRect(ex, 120, statusBarH)
		a.Canvas.Text(ex, 5) // clock digits
		a.Surface.Post(ex, a.Sys.Compositor)
		ex.SleepFor(1 * sim.Second)
	}
}

const statusBarH = 38

// HideLauncher removes the launcher surface from composition (a fullscreen
// app is in front). It is sticky: if the launcher has not created its
// surface yet, the surface comes up hidden.
func (sys *System) HideLauncher() {
	sys.launcherHidden = true
	if sys.Launcher != nil && sys.Launcher.Surface != nil {
		sys.Launcher.Surface.Visible = false
	}
}

// processKernelRegion is a convenience for tests.
func processKernelRegion(p *kernel.Process) *mem.VMA { return p.Layout.Kernel }
