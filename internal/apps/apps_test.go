package apps

import (
	"strings"
	"testing"

	"agave/internal/android"
	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/stats"
)

func TestSuiteHas19WorkloadsInPaperOrder(t *testing.T) {
	names := Names()
	want := []string{
		"aard.main", "coolreader.epub.view", "countdown.main", "doom.main",
		"frozenbubble.main", "gallery.mp4.view", "jetboy.main",
		"music.mp3.view", "music.mp3.view.bkg", "odr.ppt.view",
		"odr.txt.view", "odr.xls.view", "osmand.map.view",
		"osmand.nav.view", "pm.apk.view", "pm.apk.view.bkg",
		"vlc.mp3.view", "vlc.mp3.view.bkg", "vlc.mp4.view",
	}
	if len(names) != 19 {
		t.Fatalf("suite has %d workloads, want 19", len(names))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("workload[%d] = %s, want %s", i, names[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("doom.main")
	if err != nil || w.Name != "doom.main" {
		t.Fatalf("ByName: %v %v", w, err)
	}
	if _, err := ByName("angrybirds.main"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestBackgroundVariantsMarked(t *testing.T) {
	for _, w := range All() {
		wantBkg := strings.HasSuffix(w.Name, ".bkg")
		if w.Background != wantBkg {
			t.Errorf("%s: Background = %v", w.Name, w.Background)
		}
	}
}

func TestCategoriesSpanEight(t *testing.T) {
	cats := map[string]bool{}
	for _, w := range All() {
		cats[w.Category] = true
	}
	// The paper: 12 applications spanning eight categories.
	if len(cats) < 6 {
		t.Fatalf("only %d categories: %v", len(cats), cats)
	}
}

func TestCoolreaderMapsCR3Engine(t *testing.T) {
	w, _ := ByName("coolreader.epub.view")
	found := false
	for _, l := range w.ExtraLibs {
		if l == "libcr3engine-3-1-1.so" {
			found = true
		}
	}
	if !found {
		t.Fatal("coolreader does not map libcr3engine-3-1-1.so (Figure 1 legend entry)")
	}
}

// launchAndRun boots the stack, runs workload name for d simulated time, and
// returns the kernel for inspection.
func launchAndRun(t *testing.T, name string, d sim.Ticks) *kernel.Kernel {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 1})
	t.Cleanup(k.Shutdown)
	sys := android.Boot(k)
	w, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	Launch(sys, w)
	k.Run(d)
	return k
}

func TestEveryWorkloadRunsWithoutPanic(t *testing.T) {
	// A boot + 350 simulated ms of every workload: the broad integration
	// sweep. Panics inside simulated threads would fail the run.
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			k := launchAndRun(t, name, 350*sim.Millisecond)
			if got := k.Stats.ByProcess()["benchmark"]; got == 0 {
				t.Fatalf("%s: benchmark process earned no references", name)
			}
		})
	}
}

func TestForegroundHidesLauncherBackgroundDoesNot(t *testing.T) {
	kFg := launchAndRun(t, "music.mp3.view", 300*sim.Millisecond)
	kBg := launchAndRun(t, "music.mp3.view.bkg", 300*sim.Millisecond)
	_ = kFg
	// The background variant must produce no gralloc writes from the
	// benchmark: it has no surface.
	if got := kBg.Stats.ByProcess()["benchmark"]; got == 0 {
		t.Fatal("bkg benchmark idle")
	}
	// Compare the benchmark process's own drawing: the background variant
	// has no surface, so its gralloc writes must be zero (the residual
	// gralloc traffic belongs to launcher/systemui).
	fgGralloc := benchmarkWrites(kFg.Stats, "gralloc-buffer")
	bgGralloc := benchmarkWrites(kBg.Stats, "gralloc-buffer")
	if fgGralloc == 0 {
		t.Fatal("foreground music never drew")
	}
	if bgGralloc != 0 {
		t.Fatalf("background variant drew into a surface: %d refs", bgGralloc)
	}
}

// benchmarkWrites is the benchmark process's data writes into region.
func benchmarkWrites(c *stats.Collector, region string) uint64 {
	var n uint64
	for _, e := range c.Entries() {
		if e.Proc == "benchmark" && e.Kind == stats.DataWrite && e.Region == region {
			n += e.Count
		}
	}
	return n
}

func TestPMInstallSpawnsDexopt(t *testing.T) {
	k := launchAndRun(t, "pm.apk.view", 1200*sim.Millisecond)
	if k.FindProcess("dexopt") == nil {
		t.Fatal("pm.apk.view never spawned dexopt")
	}
	if k.FindProcess("id.defcontainer") == nil {
		t.Fatal("pm.apk.view never spawned id.defcontainer")
	}
}

func TestGalleryMediaserverDominant(t *testing.T) {
	k := launchAndRun(t, "gallery.mp4.view", 700*sim.Millisecond)
	bp := stats.NewBreakdown(k.Stats.ByProcess(stats.IFetch))
	if bp.Rows[0].Name != "mediaserver" {
		t.Fatalf("gallery top process = %s, want mediaserver (paper: 81%%)", bp.Rows[0].Name)
	}
	if bp.Rows[0].Share < 0.5 {
		t.Fatalf("mediaserver share = %.1f%%, want > 50%%", bp.Rows[0].Share*100)
	}
}

func TestVLCDecodesInProcess(t *testing.T) {
	k := launchAndRun(t, "vlc.mp4.view", 700*sim.Millisecond)
	bp := stats.NewBreakdown(k.Stats.ByProcess(stats.IFetch))
	if bp.Rows[0].Name != "benchmark" {
		t.Fatalf("vlc top process = %s, want benchmark (in-process decode)", bp.Rows[0].Name)
	}
	if k.Stats.ByRegion(stats.IFetch)["libvlccore.so"] == 0 {
		t.Fatal("no fetches from libvlccore.so")
	}
}

func TestThreadCensusInPaperBand(t *testing.T) {
	k := launchAndRun(t, "osmand.nav.view", 400*sim.Millisecond)
	if n := k.ThreadCount(); n < 32 || n > 147 {
		t.Fatalf("threads = %d, paper band is 32-147", n)
	}
	if n := k.ProcessCount(); n < 18 || n > 36 {
		t.Fatalf("processes = %d, paper band is 20-34", n)
	}
}
