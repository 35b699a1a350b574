package apps

import (
	"agave/internal/android"
	"agave/internal/kernel"
	"agave/internal/media"
	"agave/internal/mem"
	"agave/internal/sim"
)

// serverSeekInput builds the seekbar handler of a mediaserver-backed
// player: a move sample only redraws the scrub overlay (overlayH tall),
// everything else seeks the session through mediaserver (demux index walk +
// bitstream resync server-side), charges the seek-complete callback in
// framework bytecode, and reposts the overlay. A failed seek — an injected
// binder fault, or mediaserver mid-restart — is tolerated: the scrub is
// lost, the player keeps its handle, and the next gesture lands on the
// recovered server.
func serverSeekInput(p *media.Player, callbackCost uint64, overlayH int) func(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
	return func(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
		if ev.Kind == android.TouchMove {
			a.Canvas.FillRect(ex, 800, overlayH)
			return
		}
		if err := p.Seek(ex, a.Sys.Binder); err != nil {
			a.Sys.NoteDetectedFault()
			a.Canvas.FillRect(ex, 800, overlayH)
			return
		}
		a.VM.InterpBulk(ex, a.FrameworkDex, callbackCost, false)
		a.Canvas.FillRect(ex, 800, overlayH)
		a.Surface.Post(ex, a.Sys.Compositor)
	}
}

// openPlayer opens a media session, retrying while mediaserver is absent
// (an app launch can land inside a KillMediaserver restart window); a
// failure other than the restart gap still panics — a missing media stack
// outside chaos runs is a harness bug, not a scenario outcome.
func openPlayer(ex *kernel.Exec, a *android.App, kind string) *media.Player {
	for attempt := 0; ; attempt++ {
		p, err := media.Open(ex, a.Sys.Binder, kind)
		if err == nil {
			return p
		}
		if attempt >= 50 {
			panic(err)
		}
		a.Sys.NoteDetectedFault()
		ex.SleepFor(50 * sim.Millisecond)
	}
}

// startPlayer begins playback, tolerating an injected failure: the session
// simply does not start, which the run's decode counters expose.
func startPlayer(ex *kernel.Exec, a *android.App, p *media.Player) {
	if err := p.Start(ex, a.Sys.Binder); err != nil {
		a.Sys.NoteDetectedFault()
	}
}

// inProcessSeekInput builds the seek handler of an in-process decoder
// (VLC): a move sample only redraws the scrub overlay, everything else
// walks the stream index inside the engine's own demuxer (indexWords over
// the bitstream plus stackWork of bookkeeping, and any extra invalidation
// the codec needs), refills the bitstream from storage at the target, and
// reposts the overlay.
func inProcessSeekInput(engine, stream *mem.VMA, indexWords, stackWork, refill uint64,
	overlayH int, invalidate func(ex *kernel.Exec)) func(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
	return func(ex *kernel.Exec, a *android.App, ev android.InputEvent) {
		if ev.Kind == android.TouchMove {
			a.Canvas.FillRect(ex, 800, overlayH)
			return
		}
		ex.InCode(engine, func() {
			ex.Do(kernel.Work{Fetch: 8, Reads: 1, Data: stream}, indexWords)
			if invalidate != nil {
				invalidate(ex)
			}
			ex.StackWork(stackWork)
		})
		ex.BlockRead(stream, refill)
		a.Canvas.FillRect(ex, 800, overlayH)
		a.Surface.Post(ex, a.Sys.Compositor)
	}
}

// gallery.mp4.view — Gingerbread's stock Gallery playing an MP4. All decode
// work happens in mediaserver via Stagefright; the app itself only runs the
// playback controls. This is the workload where the paper measures
// mediaserver at 81 % of instruction references and 77 % of data references.
func galleryMP4View() *Workload {
	return &Workload{
		Name:         "gallery.mp4.view",
		Category:     "media",
		AsyncWorkers: 1,
		Main: func(ex *kernel.Exec, a *android.App) {
			a.EnsureSurface(ex)
			a.Surface.Overlay = true // video plane composes via overlay
			p := openPlayer(ex, a, "mp4")
			p.AttachSurface(a.Surface)
			startPlayer(ex, a, p)
			// A tap on the timeline is a scrub: the demux index walk and
			// bitstream resync happen server-side in mediaserver, the app
			// only redraws the progress overlay.
			a.OnInput = serverSeekInput(p, 2000, 48)
			// Playback controls fade out; the app wakes rarely to
			// advance the progress bar.
			for n := uint64(0); ; n++ {
				uiPump(ex, a, 1000)
				if n%3 == 0 {
					a.Canvas.FillRect(ex, 800, 48) // progress overlay
					a.Surface.Post(ex, a.Sys.Compositor)
				}
				touchLibraries(ex, a, 120)
				ex.SleepFor(400 * sim.Millisecond)
			}
		},
	}
}

// musicMP3View — the stock Music app playing an MP3 via mediaserver.
// Foreground mode redraws the now-playing screen (seekbar, VU-ish art);
// background mode is the paper's music.mp3.view.bkg: the service keeps
// playing with no UI at all.
func musicMP3View(background bool) *Workload {
	name := "music.mp3.view"
	if background {
		name += ".bkg"
	}
	return &Workload{
		Name:         name,
		Category:     "media",
		Background:   background,
		AsyncWorkers: 1,
		Main: func(ex *kernel.Exec, a *android.App) {
			a.EnsureSurface(ex)
			p := openPlayer(ex, a, "mp3")
			startPlayer(ex, a, p)
			if !background {
				// Seekbar input scrubs the track through mediaserver.
				a.OnInput = serverSeekInput(p, 2500, 80)
			}
			for n := uint64(0); ; n++ {
				if background {
					// The service ticks its notification state only.
					a.VM.InterpBulk(ex, a.FrameworkDex, 400, false)
					touchLibraries(ex, a, 60)
					ex.SleepFor(500 * sim.Millisecond)
					continue
				}
				uiPump(ex, a, 6000)
				a.VM.Exec(ex, a.Dex, "sumLoop", 200)
				a.Canvas.FillRect(ex, 800, 80) // seekbar strip
				a.Canvas.Blit(ex, 256, 256)    // album art pulse
				a.Canvas.Text(ex, 40)
				a.Surface.Post(ex, a.Sys.Compositor)
				touchLibraries(ex, a, 250)
				ex.SleepFor(500 * sim.Millisecond)
			}
		},
	}
}

// vlcMP3View — VLC playing an MP3. Unlike the Music app, VLC decodes
// in-process with its own native engine (libvlccore), so the benchmark
// process itself carries the decode load and hosts the AudioTrackThread.
func vlcMP3View(background bool) *Workload {
	name := "vlc.mp3.view"
	if background {
		name += ".bkg"
	}
	return &Workload{
		Name:         name,
		Category:     "media",
		Background:   background,
		ExtraLibs:    []string{"libvlccore.so", "libvlcjni.so", "libmedia.so"},
		AsyncWorkers: 1,
		Main: func(ex *kernel.Exec, a *android.App) {
			a.EnsureSurface(ex)
			vlc := a.LinkMap.VMA("libvlccore.so")
			stream := a.AnonBuffer("bitstream", 1<<20)
			a.Sys.Media.StreamTrack(a.Proc)
			if !background {
				// VLC decodes in-process, so a seek is in-process too:
				// its own demuxer walks the stream index and refills the
				// bitstream — the contrast to the Music app's
				// mediaserver-side scrub.
				a.OnInput = inProcessSeekInput(vlc, stream, 4000, 6_000, 64<<10, 100, nil)
			}
			// Decoder worker: VLC runs its input/decode chain on its
			// own threads.
			a.SpawnWorker(func(ex *kernel.Exec, a *android.App) {
				frames := 0
				for {
					if frames%150 == 0 {
						ex.BlockRead(stream, 64<<10)
					}
					frames++
					ex.InCode(vlc, func() {
						// MAD-style fixed-point MP3 decode.
						ex.Do(kernel.Work{Fetch: 13, Reads: 1, Data: stream}, 480)
						ex.StackWork(24_000)
					})
					ex.SleepFor(26 * sim.Millisecond)
				}
			})
			for n := uint64(0); ; n++ {
				if background {
					a.VM.InterpBulk(ex, a.FrameworkDex, 300, false)
					touchLibraries(ex, a, 60)
					ex.SleepFor(500 * sim.Millisecond)
					continue
				}
				uiPump(ex, a, 5000)
				a.Canvas.FillRect(ex, 800, 100)
				a.Canvas.Text(ex, 60)
				a.Surface.Post(ex, a.Sys.Compositor)
				touchLibraries(ex, a, 220)
				ex.SleepFor(500 * sim.Millisecond)
			}
		},
	}
}

// vlcMP4View — VLC playing video in-process: native demux + AVC decode +
// YUV→RGB conversion, all inside the benchmark process, rendering into its
// own surface. The contrast with gallery.mp4.view (mediaserver-side decode)
// is one of the suite's deliberate mode comparisons.
func vlcMP4View() *Workload {
	return &Workload{
		Name:         "vlc.mp4.view",
		Category:     "media",
		ExtraLibs:    []string{"libvlccore.so", "libvlcjni.so", "libmedia.so"},
		AsyncWorkers: 1,
		Helpers:      1,
		Main: func(ex *kernel.Exec, a *android.App) {
			a.EnsureSurface(ex)
			a.Surface.Overlay = true // video plane composes via overlay
			vlc := a.LinkMap.VMA("libvlccore.so")
			stream := a.AnonBuffer("bitstream", 2<<20)
			refs := a.AnonBuffer("reframes", 4<<20)
			a.Sys.Media.StreamTrack(a.Proc)
			// In-process video seek: demux index walk, a sync-frame burst
			// from storage, and the reference-frame set invalidated.
			a.OnInput = inProcessSeekInput(vlc, stream, 6000, 8_000, 192<<10, 48,
				func(ex *kernel.Exec) {
					ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: refs}, 20_000)
				})
			a.SpawnWorker(func(ex *kernel.Exec, a *android.App) {
				frames := 0
				for {
					if frames%24 == 0 {
						ex.BlockRead(stream, 256<<10)
					}
					frames++
					px := uint64(800 * 442)
					ex.InCode(vlc, func() {
						// Entropy decode + MC + reconstruction.
						ex.Do(kernel.Work{Fetch: 16, Reads: 1, Data: stream}, px/16)
						ex.Do(kernel.Work{Fetch: 3, Reads: 1, Data: refs}, px)
						ex.Do(kernel.Work{Fetch: 3, Writes: 1, Data: a.Surface.Buf}, px)
						ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: refs}, px/2)
					})
					a.Surface.Post(ex, a.Sys.Compositor)
					ex.SleepFor(sim.Second / 24)
				}
			})
			for n := uint64(0); ; n++ {
				uiPump(ex, a, 2500)
				if n%2 == 0 {
					a.Canvas.FillRect(ex, 800, 48)
				}
				touchLibraries(ex, a, 200)
				ex.SleepFor(500 * sim.Millisecond)
			}
		},
	}
}
