package gfx

import (
	"testing"

	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

func setup(t *testing.T) (*kernel.Kernel, *Compositor, *kernel.Process) {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: 100 * sim.Microsecond, Seed: 9})
	t.Cleanup(k.Shutdown)
	ss := k.NewProcess("system_server", 1<<20, 1<<20)
	lm := loader.Load(ss.AS, ss.Layout, []string{"libskia.so", "libsurfaceflinger.so"})
	c := NewCompositor(ss, lm)
	app := k.NewProcess("benchmark", 1<<20, 1<<20)
	loader.Load(app.AS, app.Layout, []string{"libskia.so"})
	return k, c, app
}

// TestCreateSurfaceSharesPixels: a surface's pixels are a gralloc-buffer
// region in the app, aliased read-only into SurfaceFlinger's address space
// under the same name and size.
func TestCreateSurfaceSharesPixels(t *testing.T) {
	k, c, app := setup(t)
	var s *Surface
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		s = c.CreateSurface(ex, app, "win", 320, 240, 1)
	})
	k.Run(5 * sim.Millisecond)
	if s == nil {
		t.Fatal("surface not created")
	}
	if s.Buf.Name != mem.RegionGralloc || app.AS.Find(s.Buf.Start) != s.Buf {
		t.Fatalf("surface buffer %v is not the app's gralloc-buffer region", s.Buf)
	}
	if s.sfBuf.Name != mem.RegionGralloc || s.sfBuf.Size() != s.Buf.Size() || c.Proc.AS.Find(s.sfBuf.Start) != s.sfBuf {
		t.Fatalf("compositor alias %v does not map the %d-byte buffer in SurfaceFlinger's space", s.sfBuf, s.Buf.Size())
	}
}

func TestZOrderMaintained(t *testing.T) {
	k, c, app := setup(t)
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		c.CreateSurface(ex, app, "top", 10, 10, 10)
		c.CreateSurface(ex, app, "bottom", 10, 10, 0)
		c.CreateSurface(ex, app, "middle", 10, 10, 5)
	})
	k.Run(5 * sim.Millisecond)
	ss := c.surfaces
	if len(ss) != 3 || ss[0].Name != "bottom" || ss[1].Name != "middle" || ss[2].Name != "top" {
		t.Fatalf("z order wrong: %v %v %v", ss[0].Name, ss[1].Name, ss[2].Name)
	}
}

func TestComposeOnPost(t *testing.T) {
	k, c, app := setup(t)
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		s := c.CreateSurface(ex, app, "win", ScreenW, ScreenH, 1)
		for i := 0; i < 5; i++ {
			s.Post(ex, c)
			ex.SleepFor(2 * VsyncPeriod)
		}
	})
	k.Run(400 * sim.Millisecond)
	if c.Frames < 4 {
		t.Fatalf("composed %d frames, want >= 4", c.Frames)
	}
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch[mem.RegionMspace] == 0 {
		t.Fatal("composition fetched nothing from mspace")
	}
	data := k.Stats.ByRegion(stats.DataKinds...)
	if data[mem.RegionGralloc] == 0 || data[mem.RegionFramebuffer] == 0 {
		t.Fatal("composition touched no gralloc/fb0 data")
	}
}

func TestOverlaySurfaceSkipsBlend(t *testing.T) {
	k, c, app := setup(t)
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		s := c.CreateSurface(ex, app, "video", ScreenW, ScreenH, 1)
		s.Overlay = true
		for i := 0; i < 5; i++ {
			s.Post(ex, c)
			ex.SleepFor(2 * VsyncPeriod)
		}
	})
	k.Run(400 * sim.Millisecond)
	// Overlay flips write only descriptors: fb0 traffic must be tiny.
	fb := k.Stats.ByRegion(stats.DataKinds...)[mem.RegionFramebuffer]
	if fb > 10_000 {
		t.Fatalf("overlay path wrote %d fb0 refs (expected descriptor-only)", fb)
	}
}

func TestDirtyRectOnlyComposesPosted(t *testing.T) {
	k, c, app := setup(t)
	c.DirtyRectOnly = true
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		big := c.CreateSurface(ex, app, "big", ScreenW, ScreenH, 0)
		small := c.CreateSurface(ex, app, "small", 16, 16, 1)
		_ = big // never posted
		for i := 0; i < 5; i++ {
			small.Post(ex, c)
			ex.SleepFor(2 * VsyncPeriod)
		}
	})
	k.Run(400 * sim.Millisecond)
	// With dirty-rect composition only the 16x16 surface is blended, so
	// gralloc reads stay small.
	gr := k.Stats.ByRegion(stats.DataRead)[mem.RegionGralloc]
	if gr > 100_000 {
		t.Fatalf("dirty-rect composition read %d gralloc refs (full-screen leak?)", gr)
	}
}

func TestHiddenSurfaceNotComposed(t *testing.T) {
	k, c, app := setup(t)
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		s := c.CreateSurface(ex, app, "hidden", ScreenW, ScreenH, 0)
		tiny := c.CreateSurface(ex, app, "tiny", 8, 8, 1)
		s.Visible = false
		for i := 0; i < 3; i++ {
			tiny.Post(ex, c)
			ex.SleepFor(2 * VsyncPeriod)
		}
	})
	k.Run(200 * sim.Millisecond)
	gr := k.Stats.ByRegion(stats.DataRead)[mem.RegionGralloc]
	if gr > 50_000 {
		t.Fatalf("hidden surface appears to have been composed: %d gralloc reads", gr)
	}
}

func TestCanvasOps(t *testing.T) {
	k, c, app := setup(t)
	lmApp := loader.Rebind(app.AS, app.Layout, []string{"libskia.so"})
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(app.Layout.Text)
		s := c.CreateSurface(ex, app, "win", 400, 300, 1)
		cv := NewCanvas(app, lmApp, s)
		cv.FillRect(ex, 400, 300)
		cv.Blit(ex, 100, 100)
		cv.Text(ex, 25)
		cv.DecodeImage(ex, cv.scratch, 200, 150)
	})
	k.Run(20 * sim.Millisecond)
	byProc := k.Stats.ByProcess()
	if byProc["benchmark"] == 0 {
		t.Fatal("canvas ops earned nothing")
	}
	data := k.Stats.ByRegion(stats.DataWrite)
	if data[mem.RegionGralloc] == 0 {
		t.Fatal("canvas never wrote the surface")
	}
	ifetch := k.Stats.ByRegion(stats.IFetch)
	if ifetch["libskia.so"] == 0 || ifetch[mem.RegionMspace] == 0 {
		t.Fatal("canvas fetch attribution missing")
	}
}

func TestBadSurfaceSizePanics(t *testing.T) {
	k, c, app := setup(t)
	panicked := false
	k.SpawnThread(app, "main", "main", func(ex *kernel.Exec) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ex.PushCode(app.Layout.Text)
		c.CreateSurface(ex, app, "bad", 0, 10, 1)
	})
	k.Run(5 * sim.Millisecond)
	if !panicked {
		t.Fatal("zero-width surface accepted")
	}
}

func TestIdleVsyncCheap(t *testing.T) {
	k, c, _ := setup(t)
	_ = c
	k.Run(100 * sim.Millisecond) // no posts at all
	sf := k.Stats.ByThread()["SurfaceFlinger"]
	if sf > 500_000 {
		t.Fatalf("idle SurfaceFlinger consumed %d refs", sf)
	}
}
