package android

import (
	"fmt"

	"agave/internal/binder"
	"agave/internal/dalvik"
	"agave/internal/gfx"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
)

// AppConfig describes a process to be forked from zygote.
type AppConfig struct {
	// Process is the kernel process name (the benchmark app uses
	// "benchmark", matching the paper's Figure 3/4 legend).
	Process string
	// Label is the workload identity, e.g. "aard.main"; it names the
	// app's dex image.
	Label string
	// ExtraLibs are app-private native libraries beyond the zygote set
	// (e.g. "libcr3engine-3-1-1.so" for coolreader).
	ExtraLibs []string
	// Fullscreen hides the launcher behind the app's surface.
	Fullscreen bool
	// Foreground creates a surface and a canvas; background services
	// leave it off.
	Foreground bool
	// StatusBar sizes the surface as the status bar instead of the
	// app window area.
	StatusBar bool
	// AsyncWorkers is the AsyncTask pool size (0 = no pool).
	AsyncWorkers int
	// Helpers forks that many "app_process" companion processes, the
	// unspecialized zygote children the paper notes are forked "for
	// every other process the application spawns".
	Helpers int
	// NoJIT disables the trace JIT in this app's VM (ablation A1).
	NoJIT bool
}

// App is a running application: a zygote child with its own VM view, binder
// pool, optional surface/canvas, and AsyncTask pool.
type App struct {
	Sys *System
	Cfg AppConfig

	Proc    *kernel.Process
	VM      *dalvik.VM
	LinkMap *loader.LinkMap

	// Dex is the app's own bytecode image ("<label>@classes.dex").
	Dex *dalvik.LoadedDex
	// FrameworkDex is the shared framework image view in this process.
	FrameworkDex *dalvik.LoadedDex

	Surface *gfx.Surface
	Canvas  *gfx.Canvas
	Tasks   *AsyncPool

	// Looper is the main thread's message queue. Lifecycle transitions
	// (pause/resume) arrive here and are performed by the main thread at
	// its next PausePoint, as through the real ActivityThread handler.
	Looper *Looper
	// OnInput handles a delivered input event on the main thread, after
	// the framework's view-hierarchy dispatch. The apps package installs
	// a workload-appropriate handler at launch; workload bodies may
	// replace it (media players install seek handlers). Nil means the
	// framework dispatch is the whole cost.
	OnInput func(ex *kernel.Exec, a *App, ev *InputEvent)
	// HelperProcs are the app_process companions forked for cfg.Helpers;
	// KillApp terminates them with the app.
	HelperProcs []*kernel.Process
	// Dead marks an app torn down by KillApp.
	Dead bool

	// Resources is the app's mapped .apk (resource loads read it),
	// Database its sqlite file, Assets the shared system asset mappings
	// (framework-res, fonts, ICU data). Each is a named region in the
	// paper's Figure 2 census.
	Resources *mem.VMA
	Database  *mem.VMA
	Assets    []*mem.VMA

	mainBody  func(ex *kernel.Exec, a *App)
	workerSeq int
	anon      map[string]*mem.VMA
	paused    bool
	// trimmed latches one onTrimMemory per pressure episode; the memory
	// monitor re-arms it when free pages recover.
	trimmed bool
	// anrFlagged latches one ANR per blocked-looper episode; the watchdog
	// re-arms it when the looper drains.
	anrFlagged bool
	// lruIndex is the app's position in the cached-app LRU, 0 when it is
	// not cached; updateOomAdj refreshes it.
	lruIndex int
}

// sharedAssets are system-wide files every app maps; the names are shared
// across processes so they count once in the suite census.
var sharedAssets = []struct {
	name string
	size uint64
}{
	{"framework-res.apk", 8 << 20},
	{"DroidSans.ttf", 192 << 10},
	{"DroidSans-Bold.ttf", 192 << 10},
	{"DroidSansMono.ttf", 128 << 10},
	{"Clockopia.ttf", 32 << 10},
	{"icudt44l.dat", 6 << 20},
	{"/dev/ashmem/system_properties", 128 << 10},
	{"sqlite shared cache", 512 << 10},
}

// AnonBuffer returns (creating on first use) a keyed anonymous working
// buffer for workload data: dictionary pages, decoded chapters, tile packs.
func (a *App) AnonBuffer(key string, size uint64) *mem.VMA {
	if v, ok := a.anon[key]; ok {
		return v
	}
	if a.anon == nil {
		a.anon = make(map[string]*mem.VMA)
	}
	v := a.Proc.Layout.MapAnon(a.Proc.AS, size)
	a.anon[key] = v
	return v
}

// NewApp forks cfg.Process from zygote and wires up the runtime. The app
// does not run until Start.
func (sys *System) NewApp(cfg AppConfig) *App {
	if cfg.Process == "" || cfg.Label == "" {
		panic("android: AppConfig needs Process and Label")
	}
	k := sys.K
	a := &App{Sys: sys, Cfg: cfg}
	a.Proc = k.Fork(sys.Zygote, cfg.Process)
	names := append(loader.BaseSet(), cfg.ExtraLibs...)
	// Every application also maps its JNI stub library, named after the
	// package as on a real device.
	names = append(names, jniLibName(cfg.Label))
	a.LinkMap = loader.Rebind(a.Proc.AS, a.Proc.Layout, names)
	// Package-private mappings: the resource apk and the app database.
	a.Resources = a.Proc.AS.MapAnywhere(mem.MmapBase, 4<<20, cfg.Label+".apk",
		mem.PermRead, mem.ClassData)
	a.Database = a.Proc.AS.MapAnywhere(mem.MmapBase, 256<<10, cfg.Label+".db",
		mem.PermRead|mem.PermWrite, mem.ClassData)
	for _, asset := range sharedAssets {
		v := a.Proc.AS.MapAnywhere(mem.MmapBase, asset.size, asset.name,
			mem.PermRead, mem.ClassShared)
		a.Assets = append(a.Assets, v)
	}
	a.VM = dalvik.ForkVM(sys.ZygoteVM, a.Proc, true)
	a.Looper = NewLooper(k, cfg.Process+"."+cfg.Label)
	if cfg.NoJIT {
		a.VM.JITEnabled = false
	}
	if cfg.AsyncWorkers > 0 {
		a.Tasks = NewAsyncPool(a.Proc, cfg.AsyncWorkers)
	}
	// Every app hosts a Binder endpoint for framework callbacks. The
	// handler parses the callback header before doing the work; a
	// malformed parcel (the CorruptParcel injection) fails the read and
	// takes the short error path — log-and-reject in framework bytecode,
	// reply -EBADMSG — instead of the full callback.
	sys.Binder.Register(a.Proc, "app."+cfg.Label, 2,
		func(ex *kernel.Exec, txn *binder.Transaction) {
			txn.Reply = binder.NewParcel()
			if _, err := txn.Data.ReadString(); err != nil {
				a.VM.InterpBulk(ex, a.frameworkDexFor(ex), 300, false)
				txn.Reply.WriteInt32(-74) // -EBADMSG
				sys.noteDetectedFault()
				return
			}
			a.VM.InterpBulk(ex, a.frameworkDexFor(ex), 1200, false)
			txn.Reply.WriteInt32(0)
		})
	for i := 0; i < cfg.Helpers; i++ {
		sys.spawnHelper(a, i)
	}
	sys.registerApp(a)
	return a
}

// frameworkDexFor lazily adopts the framework image into this process's VM
// (usable from any of the app's threads).
func (a *App) frameworkDexFor(ex *kernel.Exec) *dalvik.LoadedDex {
	if a.FrameworkDex == nil {
		a.FrameworkDex = a.VM.Adopt(a.Sys.FrameworkFile, a.LinkMap.VMA("framework.jar@classes.dex"))
	}
	return a.FrameworkDex
}

// jniLibName derives the app's JNI stub library name from its label:
// "aard.main" → "libaard_jni.so", as app-private libraries are named on a
// real device.
func jniLibName(label string) string {
	first := label
	if i := indexByte(label, '.'); i > 0 {
		first = label[:i]
	}
	return "lib" + first + "_jni.so"
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// Start launches the app's main thread: activity lifecycle (Binder calls to
// the activity manager), dex loading, then the workload body. The main
// thread accounts under the app's label, matching how real Android names a
// process's main thread after its package.
func (a *App) Start(body func(ex *kernel.Exec, a *App)) {
	a.mainBody = body
	a.Sys.noteLaunched(a)
	a.Sys.K.SpawnThread(a.Proc, "main", a.Cfg.Label, func(ex *kernel.Exec) {
		ex.PushCode(a.Proc.Layout.Text)
		a.frameworkDexFor(ex)
		// ActivityManager handshake: onCreate/onResume round trips.
		if _, err := a.Sys.Binder.Call(ex, "activity", 1, lifecycleParcel(a.Cfg.Label, "create")); err != nil {
			panic(err)
		}
		a.Dex = a.VM.LoadDex(ex, dalvik.StockDex(a.Cfg.Label))
		if a.Cfg.Fullscreen {
			a.Sys.HideLauncher()
		}
		if _, err := a.Sys.Binder.Call(ex, "activity", 2, lifecycleParcel(a.Cfg.Label, "resume")); err != nil {
			panic(err)
		}
		a.mainBody(ex, a)
	})
}

func lifecycleParcel(label, event string) *binder.Parcel {
	p := binder.NewParcel()
	p.WriteString("android.app.IActivityManager")
	p.WriteString(label)
	p.WriteString(event)
	return p
}

// EnsureSurface creates the app's window surface (via the window service and
// SurfaceFlinger) and a canvas on first call.
func (a *App) EnsureSurface(ex *kernel.Exec) {
	if a.Surface != nil || !a.Cfg.Foreground {
		return
	}
	if _, err := a.Sys.Binder.Call(ex, "window", 1, lifecycleParcel(a.Cfg.Label, "addWindow")); err != nil {
		panic(err)
	}
	w, h, z := gfx.ScreenW, gfx.ScreenH-statusBarH, 1
	if a.Cfg.StatusBar {
		w, h, z = gfx.ScreenW, statusBarH, 10
	}
	a.Surface = a.Sys.Compositor.CreateSurface(ex, a.Proc, a.Cfg.Label, w, h, z)
	a.Canvas = gfx.NewCanvas(a.Proc, a.LinkMap, a.Surface)
}

// SpawnWorker starts a generic app worker thread ("Thread-N", accounting to
// the "Thread" group of Table I) running body.
func (a *App) SpawnWorker(body func(ex *kernel.Exec, a *App)) *kernel.Thread {
	a.workerSeq++
	name := fmt.Sprintf("Thread-%d", 10+a.workerSeq)
	return a.Sys.K.SpawnThread(a.Proc, name, "Thread", func(ex *kernel.Exec) {
		ex.PushCode(a.Proc.Layout.Text)
		body(ex, a)
	})
}

// spawnHelper forks an unspecialized "app_process" companion that performs
// modest framework bytecode work on the app's behalf.
func (sys *System) spawnHelper(a *App, idx int) {
	p := sys.K.Fork(sys.Zygote, "app_process")
	a.HelperProcs = append(a.HelperProcs, p)
	vm := dalvik.ForkVM(sys.ZygoteVM, p, false)
	sys.K.SpawnThread(p, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		fwVMA := p.AS.FindByName("framework.jar@classes.dex")
		if fwVMA == nil {
			panic("android: helper lacks framework image")
		}
		fw := vm.Adopt(sys.FrameworkFile, fwVMA)
		period := sim.Ticks(40+20*idx) * sim.Millisecond
		for {
			vm.InterpBulk(ex, fw, 3000, false)
			ex.StackWork(1500)
			ex.SleepFor(period)
		}
	})
}

// FrameLoop runs a UI frame callback at the given frame rate until the
// simulation ends: the standard foreground-app cadence (input → logic →
// draw → post).
func (a *App) FrameLoop(ex *kernel.Exec, fps int, frame func(ex *kernel.Exec, n uint64)) {
	period := sim.Second / sim.Ticks(fps)
	next := ex.Now() + period
	var n uint64
	for {
		a.PausePoint(ex)
		frame(ex, n)
		n++
		if a.Surface != nil {
			a.Surface.Post(ex, a.Sys.Compositor)
		}
		ex.SleepUntil(next)
		next += period
		if now := ex.Now(); now > next {
			// Dropped frames: resynchronize instead of spiralling.
			next = now + period
		}
	}
}
