// Package gfx models the Gingerbread graphics stack: gralloc buffers shared
// between applications and SurfaceFlinger, Skia software rendering in the
// application, and SurfaceFlinger composition into the fb0 framebuffer.
//
// Two modelling decisions come straight from the paper's Figures 1 and 2:
//
//   - "mspace" is the top *instruction* region across the Agave suite; the
//     paper attributes it to "buffering pixel operations". We reproduce this
//     by placing the generated scanline/blit pipelines in each process's
//     mspace arena, so pixel loops fetch from mspace.
//   - gralloc-buffer and fb0 are top *data* regions: composition reads
//     gralloc-buffer and writes fb0 (frame buffer), one reference per pixel
//     word.
package gfx

import (
	"fmt"

	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
)

// Display geometry: a WVGA Gingerbread handset, 16-bit RGB565.
const (
	ScreenW       = 800
	ScreenH       = 480
	BytesPerPixel = 2
	// VsyncPeriod is ~60 Hz.
	VsyncPeriod = 16_667 * sim.Microsecond
)

// MspaceSize is the per-process pixel-pipeline arena.
const MspaceSize = 4 << 20

// Per-pixel cost model (instructions from mspace-resident pipeline code,
// plus setup overhead from libskia.so per operation). Composition through
// pixelflinger-style software blending costs ~8 instructions per pixel
// (fetch, convert, blend, dither, store); app-side Skia drawing is cheaper
// per pixel but adds per-op setup.
const (
	composeFetchPerPx = 2
	drawFetchPerPx    = 4
	opSetupFetch      = 600
)

// Surface is one window: a gralloc buffer owned by an application and
// aliased into the compositor's address space.
type Surface struct {
	Name    string
	W, H    int
	Z       int
	Visible bool

	// Overlay marks video surfaces that bypass software composition:
	// Gingerbread pushed video planes through the copybit/overlay path,
	// so SurfaceFlinger only programs the flip instead of blending every
	// pixel. This is what lets mediaserver dominate gallery.mp4.view (81
	// % in the paper) while composition still dominates UI workloads.
	Overlay bool

	Buf   *mem.VMA // gralloc-buffer mapping in the owner process
	sfBuf *mem.VMA // the compositor's alias of the same pixels

	dirty bool
}

// Pixels reports the surface pixel count.
func (s *Surface) Pixels() uint64 { return uint64(s.W) * uint64(s.H) }

// Post marks the surface dirty so the next composition pass picks it up,
// and charges the small surface-control handshake (an ashmem control block
// write plus a futex wake).
func (s *Surface) Post(ex *kernel.Exec, c *Compositor) {
	ex.Write(c.ctrl, 8)
	ex.Syscall(150, 24)
	s.dirty = true
	c.kick.WakeOne()
}

// Compositor is SurfaceFlinger: it owns fb0 and the composition thread
// inside system_server.
type Compositor struct {
	Proc *kernel.Process

	FB     *mem.VMA // "fb0 (frame buffer)"
	Mspace *mem.VMA // composition pipelines
	ctrl   *mem.VMA // ashmem surface control block

	libskia *mem.VMA
	libsf   *mem.VMA

	surfaces []*Surface
	kick     *kernel.WaitQueue

	// DirtyRectOnly enables the ablation-A3 composition path that only
	// recomposes posted surfaces instead of the full stack.
	DirtyRectOnly bool

	// Frames counts composition passes that actually composed.
	Frames uint64
}

// NewCompositor installs SurfaceFlinger into proc (system_server on a real
// device) and starts the "SurfaceFlinger" thread. lm must map libskia.so
// and libsurfaceflinger.so.
func NewCompositor(proc *kernel.Process, lm *loader.LinkMap) *Compositor {
	k := proc.Kernel()
	c := &Compositor{
		Proc:    proc,
		libskia: lm.VMA("libskia.so"),
		libsf:   lm.VMA("libsurfaceflinger.so"),
		kick:    k.NewWaitQueue("surfaceflinger.kick"),
	}
	c.FB = proc.AS.MapAnywhere(mem.MmapBase, ScreenW*ScreenH*BytesPerPixel,
		mem.RegionFramebuffer, mem.PermRead|mem.PermWrite, mem.ClassDevice)
	c.Mspace = proc.AS.MapAnywhere(mem.MmapBase, MspaceSize,
		mem.RegionMspace, mem.PermRead|mem.PermWrite|mem.PermExec, mem.ClassRuntime)
	c.ctrl = proc.AS.MapAnywhere(mem.MmapBase, 64<<10,
		"ashmem/SurfaceFlinger", mem.PermRead|mem.PermWrite, mem.ClassShared)
	k.SpawnThread(proc, "SurfaceFlinger", "SurfaceFlinger", c.loop)
	return c
}

// CreateSurface allocates a gralloc buffer in owner's address space, aliases
// it into the compositor, and registers the surface at the given Z order.
func (c *Compositor) CreateSurface(ex *kernel.Exec, owner *kernel.Process, name string, w, h, z int) *Surface {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("gfx: bad surface size %dx%d", w, h))
	}
	s := &Surface{Name: name, W: w, H: h, Z: z, Visible: true}
	size := uint64(w) * uint64(h) * BytesPerPixel
	s.Buf = owner.AS.MapAnywhere(mem.MmapBase, size, mem.RegionGralloc,
		mem.PermRead|mem.PermWrite, mem.ClassShared)
	s.sfBuf = c.Proc.AS.MapAnywhere(mem.MmapBase, s.Buf.Size(), s.Buf.Name,
		mem.PermRead, s.Buf.Class)
	// Registration: a binder-ish handshake into the control block.
	ex.Syscall(1200, 200)
	ex.Write(c.ctrl, 32)
	c.surfaces = append(c.surfaces, s)
	// Keep z-order stable: insertion sort by Z (small N).
	for i := len(c.surfaces) - 1; i > 0 && c.surfaces[i-1].Z > c.surfaces[i].Z; i-- {
		c.surfaces[i-1], c.surfaces[i] = c.surfaces[i], c.surfaces[i-1]
	}
	return s
}

// loop is the SurfaceFlinger thread: wake at vsync, compose if anything was
// posted. Composition reads each visible surface's gralloc pixels through
// the mspace-resident pipelines and writes the blended result to fb0.
func (c *Compositor) loop(ex *kernel.Exec) {
	ex.PushCode(c.libsf)
	next := c.Proc.Kernel().Clock.Now() + VsyncPeriod
	for {
		ex.SleepUntil(next)
		next += VsyncPeriod
		anyDirty := false
		for _, s := range c.surfaces {
			if s.dirty {
				anyDirty = true
				break
			}
		}
		if !anyDirty {
			// Idle vsync: poll the control block only.
			ex.Fetch(200)
			ex.Read(c.ctrl, 16)
			continue
		}
		c.compose(ex)
	}
}

// compose runs one composition pass.
func (c *Compositor) compose(ex *kernel.Exec) {
	ex.Read(c.ctrl, 64)
	for _, s := range c.surfaces {
		if !s.Visible || (c.DirtyRectOnly && !s.dirty) {
			continue
		}
		px := s.Pixels()
		if s.Overlay {
			// Video plane: program the overlay engine, no blending.
			ex.InCode(c.libsf, func() { ex.Fetch(opSetupFetch) })
			ex.Read(s.sfBuf, 64)
			ex.Write(c.FB, 64)
			ex.Syscall(400, 60)
			s.dirty = false
			continue
		}
		// Per-operation setup in libskia/libsurfaceflinger.
		ex.InCode(c.libskia, func() { ex.Fetch(opSetupFetch) })
		// The hot blend loop runs from mspace: read source pixels
		// (gralloc), write the framebuffer.
		ex.InCode(c.Mspace, func() {
			ex.Do(kernel.Work{
				Fetch: composeFetchPerPx, Reads: 1, Data: s.sfBuf,
			}, px)
			ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: c.FB}, px/2)
		})
		s.dirty = false
	}
	c.Frames++
}

// Canvas is the application-side Skia renderer targeting one surface.
type Canvas struct {
	Target *Surface

	mspace  *mem.VMA
	scratch *mem.VMA // decoded bitmaps, glyph caches (anonymous)
	libskia *mem.VMA
}

// NewCanvas prepares app-side rendering state for owner: its own mspace
// pixel-pipeline arena and an anonymous scratch arena for bitmaps.
func NewCanvas(owner *kernel.Process, lm *loader.LinkMap, target *Surface) *Canvas {
	cv := &Canvas{
		Target:  target,
		libskia: lm.VMA("libskia.so"),
	}
	if v := owner.AS.FindByName(mem.RegionMspace); v != nil {
		cv.mspace = v
	} else {
		cv.mspace = owner.AS.MapAnywhere(mem.MmapBase, MspaceSize,
			mem.RegionMspace, mem.PermRead|mem.PermWrite|mem.PermExec, mem.ClassRuntime)
	}
	cv.scratch = owner.Layout.MapAnon(owner.AS, 4<<20)
	return cv
}

// FillRect fills a w×h region of the target surface.
func (cv *Canvas) FillRect(ex *kernel.Exec, w, h int) {
	px := uint64(w) * uint64(h)
	ex.InCode(cv.libskia, func() { ex.Fetch(opSetupFetch / 2) })
	ex.InCode(cv.mspace, func() {
		ex.Do(kernel.Work{Fetch: 3, Writes: 1, Data: cv.Target.Buf}, px/2)
	})
}

// Blit copies a w×h bitmap from the scratch arena onto the target surface
// with blending.
func (cv *Canvas) Blit(ex *kernel.Exec, w, h int) {
	px := uint64(w) * uint64(h)
	ex.InCode(cv.libskia, func() { ex.Fetch(opSetupFetch) })
	ex.InCode(cv.mspace, func() {
		ex.Do(kernel.Work{Fetch: drawFetchPerPx, Reads: 1, Data: cv.scratch}, px/2)
		ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: cv.Target.Buf}, px/2)
	})
}

// Text rasterizes n glyphs (each ~12×16 px) through the glyph cache.
func (cv *Canvas) Text(ex *kernel.Exec, n int) {
	pxPerGlyph := uint64(12 * 16)
	px := uint64(n) * pxPerGlyph
	ex.InCode(cv.libskia, func() {
		ex.Fetch(opSetupFetch + uint64(n)*40)
		ex.Read(cv.scratch, uint64(n)*8) // glyph cache lookups
	})
	ex.InCode(cv.mspace, func() {
		ex.Do(kernel.Work{Fetch: drawFetchPerPx, Reads: 1, Data: cv.scratch}, px)
		ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: cv.Target.Buf}, px)
	})
}

// DecodeImage models decoding a compressed image of w×h from src into the
// scratch bitmap arena (JPEG/PNG-ish: entropy decode + dequant + color
// convert), executing from libjpeg/libskia and writing the bitmap.
func (cv *Canvas) DecodeImage(ex *kernel.Exec, src *mem.VMA, w, h int) {
	px := uint64(w) * uint64(h)
	compressed := px / 8 // ~8:1 compression
	ex.InCode(cv.libskia, func() {
		ex.Do(kernel.Work{Fetch: 18, Reads: 1, Data: src}, compressed/4)
		ex.Do(kernel.Work{Fetch: 6, Writes: 1, Data: cv.scratch}, px/2)
	})
}
