// Package apps defines the 19 Agave application workloads: 12 popular
// open-source applications, several in multiple modes (foreground vs
// background, different inputs), exactly as the paper's Figures 1–4 list
// them on their x-axes. Each workload drives the stack through the same
// services the real application uses: Dalvik bytecode for Java logic, Skia
// and SurfaceFlinger for UI, mediaserver/Stagefright for playback, the
// PackageManager flow for installs, and app-private native libraries for
// the NDK components.
package apps

import (
	"fmt"
	"sync"

	"agave/internal/android"
	"agave/internal/kernel"
)

// Workload is one Agave benchmark.
type Workload struct {
	// Name is the paper's identifier, e.g. "coolreader.epub.view".
	Name string
	// Category is one of the paper's eight application categories.
	Category string
	// ExtraLibs are app-private native libraries (mapped on top of the
	// zygote set).
	ExtraLibs []string
	// Background marks the .bkg variants: no surface, no UI drawing.
	Background bool
	// AsyncWorkers and Helpers size the AsyncTask pool and the
	// app_process companion count.
	AsyncWorkers int
	Helpers      int
	// Main is the application main-thread body; it runs after the
	// activity lifecycle handshake and never returns.
	Main func(ex *kernel.Exec, a *android.App)
}

// All returns the 19 workloads in the paper's x-axis order.
func All() []*Workload {
	return []*Workload{
		aardMain(),
		coolreaderEpubView(),
		countdownMain(),
		doomMain(),
		frozenbubbleMain(),
		galleryMP4View(),
		jetboyMain(),
		musicMP3View(false),
		musicMP3View(true),
		odrView("ppt"),
		odrView("txt"),
		odrView("xls"),
		osmandView(false),
		osmandView(true),
		pmAPKView(false),
		pmAPKView(true),
		vlcMP3View(false),
		vlcMP3View(true),
		vlcMP4View(),
	}
}

// Names lists the workload identifiers in order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}

// registry memoizes one shared, read-only instance of each workload for the
// ByName hot path: scenario engines look a workload up per app launch, and
// rebuilding all 19 (All allocates fresh copies by contract) per launch was
// measurable. Workloads are stateless — the Main closures capture only
// constructor parameters — so sharing one instance across kernels is safe.
var registry struct {
	once   sync.Once
	byName map[string]*Workload
}

// ByName finds a workload. The returned workload is shared; callers must
// treat it as read-only.
func ByName(name string) (*Workload, error) {
	registry.once.Do(func() {
		all := All()
		registry.byName = make(map[string]*Workload, len(all))
		for _, w := range all {
			registry.byName[w.Name] = w
		}
	})
	w, ok := registry.byName[name]
	if !ok {
		return nil, fmt.Errorf("apps: unknown workload %q", name)
	}
	return w, nil
}

// Launch builds the benchmark application process (named "benchmark", as in
// the paper's process legends) and starts the workload.
func Launch(sys *android.System, w *Workload) *android.App {
	return launch(sys, w, "benchmark", w.Name)
}

// LaunchAs builds an application process for w under an explicit process
// name — the multi-app entry point the scenario engine uses, so each
// concurrent app attributes its references to its own process exactly the
// way a single-app run attributes to "benchmark". The name also labels the
// app's dex image, JNI stub library, and binder endpoint, so it must be
// unique among live apps.
func LaunchAs(sys *android.System, w *Workload, name string) *android.App {
	return launch(sys, w, name, name)
}

// launch forks the app process from zygote under the given process name
// and label and starts the workload's main body.
func launch(sys *android.System, w *Workload, process, label string) *android.App {
	a := sys.NewApp(android.AppConfig{
		Process:      process,
		Label:        label,
		ExtraLibs:    w.ExtraLibs,
		Fullscreen:   !w.Background,
		Foreground:   !w.Background,
		AsyncWorkers: w.AsyncWorkers,
		Helpers:      w.Helpers,
	})
	a.OnInput = inputHandler(w)
	a.Start(w.Main)
	return a
}
