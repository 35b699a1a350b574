// Package media models the Gingerbread media stack: the mediaserver process
// hosting Stagefright decoders and AudioFlinger, Binder-exposed player
// sessions, and AudioTrack delivery threads. In the paper this stack is what
// makes mediaserver the dominant process for gallery.mp4.view (81 % of
// instruction references) and puts AudioTrackThread among the busiest
// threads suite-wide (Table I, 5.9 %).
package media

import (
	"fmt"

	"agave/internal/binder"
	"agave/internal/gfx"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
)

// Binder operation codes for the "media.player" service.
const (
	opOpenMP3 int32 = iota + 1
	opOpenMP4
	opStart
	opStop
	opSeek
)

// Audio timing.
const (
	mp3FrameSamples = 1152
	sampleRateHz    = 44100
	mp3FramePeriod  = sim.Ticks(uint64(mp3FrameSamples) * uint64(sim.Second) / sampleRateHz)
	mixPeriod       = 20 * sim.Millisecond
	trackBufSize    = 256 << 10
	bitstreamSize   = 512 << 10
	hwBufSize       = 64 << 10
)

// Video timing: a 30 fps full-screen clip.
const (
	videoFPS         = 30
	videoFramePeriod = sim.Second / videoFPS
)

// streamIDBase offsets StreamTrack session ids so they never collide with
// player session ids; sessions at or above it die with the server process
// rather than being adopted across a restart.
const streamIDBase = 1000

// Server is the mediaserver process model.
type Server struct {
	Proc *kernel.Process

	stagefright *mem.VMA
	libaudio    *mem.VMA
	libmedia    *mem.VMA
	hwBuf       *mem.VMA // audio DMA buffer (/dev/eac on the goldfish board)

	comp     *gfx.Compositor
	sessions []*session
	mixKick  *kernel.WaitQueue

	// nextID and nextStreamID allocate session ids monotonically, so ids
	// stay unique even after AdoptSessions rebuilds a sparse table (a
	// length-based id would collide with an adopted session).
	nextID       int32
	nextStreamID int32

	// FramesDecoded counts video frames decoded (for tests).
	FramesDecoded uint64
	// MP3FramesDecoded counts audio frames decoded.
	MP3FramesDecoded uint64
	// Mixes counts mixer passes that had at least one active track.
	Mixes uint64
	// Seeks counts seek transactions served (for tests).
	Seeks uint64
}

type session struct {
	id     int32
	kind   int32 // opOpenMP3 / opOpenMP4
	owner  *kernel.Process
	active bool

	bitstream *mem.VMA // compressed input, refilled from storage
	track     *mem.VMA // ashmem PCM track buffer shared with AudioFlinger
	refFrames *mem.VMA // video reference frames (anonymous)
	surface   *gfx.Surface

	start *kernel.WaitQueue
}

// NewServer boots the media stack inside proc ("mediaserver"), registers the
// "media.player" Binder service, and starts the AudioFlinger mixer thread.
func NewServer(proc *kernel.Process, lm *loader.LinkMap, driver *binder.Driver, comp *gfx.Compositor) *Server {
	k := proc.Kernel()
	s := &Server{
		Proc:        proc,
		stagefright: lm.VMA("libstagefright.so"),
		libaudio:    lm.VMA("libaudioflinger.so"),
		libmedia:    lm.VMA("libmedia.so"),
		comp:        comp,
		mixKick:     k.NewWaitQueue("audioflinger.mix"),
	}
	s.hwBuf = proc.AS.MapAnywhere(mem.MmapBase, hwBufSize, "/dev/eac",
		mem.PermRead|mem.PermWrite, mem.ClassDevice)
	driver.Register(proc, "media.player", 2, s.handle)
	k.SpawnThread(proc, "AudioOut_1", "AudioOut", s.mixerLoop)
	return s
}

// handle serves media.player transactions on mediaserver binder threads.
func (s *Server) handle(ex *kernel.Exec, txn *binder.Transaction) {
	txn.Reply = binder.NewParcel()
	switch txn.Code {
	case opOpenMP3, opOpenMP4:
		sess := s.newSession(ex, txn.Code, txn.Sender().Proc)
		txn.Reply.WriteInt32(sess.id)
	case opStart:
		id, _ := txn.Data.ReadInt32()
		if sess := s.find(id); sess != nil {
			sess.active = true
			sess.start.WakeAll()
			txn.Reply.WriteInt32(0)
		} else {
			txn.Reply.WriteInt32(-1)
		}
	case opStop:
		id, _ := txn.Data.ReadInt32()
		if sess := s.find(id); sess != nil {
			sess.active = false
			txn.Reply.WriteInt32(0)
		} else {
			txn.Reply.WriteInt32(-1)
		}
	case opSeek:
		id, _ := txn.Data.ReadInt32()
		if sess := s.find(id); sess != nil {
			s.seekSession(ex, sess)
			txn.Reply.WriteInt32(0)
		} else {
			txn.Reply.WriteInt32(-1)
		}
	default:
		txn.Reply.WriteInt32(-22)
	}
}

func (s *Server) find(id int32) *session {
	for _, sess := range s.sessions {
		if sess.id == id {
			return sess
		}
	}
	return nil
}

func (s *Server) newSession(ex *kernel.Exec, kind int32, owner *kernel.Process) *session {
	s.nextID++
	return s.addSession(s.nextID, kind, owner)
}

// addSession builds a session under an explicit id: buffers mapped in the
// mediaserver process, decode and delivery threads spawned parked on the
// start queue. newSession allocates fresh ids; AdoptSessions re-creates
// sessions under their old ids after a mediaserver restart.
func (s *Server) addSession(id int32, kind int32, owner *kernel.Process) *session {
	k := s.Proc.Kernel()
	sess := &session{
		id:    id,
		kind:  kind,
		owner: owner,
		start: k.NewWaitQueue("media.start"),
	}
	sess.bitstream = s.Proc.Layout.MapAnon(s.Proc.AS, bitstreamSize)
	sess.track = s.Proc.AS.MapAnywhere(mem.MmapBase, trackBufSize,
		"ashmem/audio-track", mem.PermRead|mem.PermWrite, mem.ClassShared)
	sess.track.Shared = true
	s.sessions = append(s.sessions, sess)
	switch kind {
	case opOpenMP3:
		k.SpawnThread(s.Proc, "TimedEventQueue", "TimedEventQueue", func(ex *kernel.Exec) {
			s.mp3DecodeLoop(ex, sess)
		})
		k.SpawnThread(s.Proc, "AudioTrackThread", "AudioTrackThread", func(ex *kernel.Exec) {
			s.audioTrackLoop(ex, sess)
		})
	case opOpenMP4:
		sess.refFrames = s.Proc.Layout.MapAnon(s.Proc.AS, 4<<20)
		k.SpawnThread(s.Proc, "TimedEventQueue", "TimedEventQueue", func(ex *kernel.Exec) {
			s.videoDecodeLoop(ex, sess)
		})
		// MP4 clips carry an audio track too.
		k.SpawnThread(s.Proc, "AudioTrackThread", "AudioTrackThread", func(ex *kernel.Exec) {
			s.audioTrackLoop(ex, sess)
		})
	}
	return sess
}

// seekSession charges a Stagefright seek on the mediaserver binder thread:
// walk the container's sample/index tables to the target, then resync the
// bitstream from storage at the new offset. The decode loops keep running —
// a seek repositions the stream, it does not pause it.
func (s *Server) seekSession(ex *kernel.Exec, sess *session) {
	// Index walk: sample-table binary search in the demuxer.
	ex.Do(kernel.Work{Fetch: 8, Reads: 1, Data: sess.bitstream}, 4000)
	ex.StackWork(6_000)
	// Refill from the seek target (video streams pull a bigger burst to
	// reach the next sync frame).
	refill := uint64(64 << 10)
	if sess.kind == opOpenMP4 {
		refill = 192 << 10
	}
	ex.BlockRead(sess.bitstream, refill)
	s.Seeks++
}

// AttachSurface binds a video session to its output surface (the client
// passes the surface it obtained from SurfaceFlinger).
func (s *Server) AttachSurface(id int32, surf *gfx.Surface) {
	if sess := s.find(id); sess != nil {
		sess.surface = surf
	}
}

// mp3DecodeLoop is a Stagefright audio decoder: refill the bitstream from
// storage, then per 26 ms frame run the synthesis filterbank and emit PCM
// into the shared track buffer.
func (s *Server) mp3DecodeLoop(ex *kernel.Exec, sess *session) {
	ex.PushCode(s.stagefright)
	framesSinceRefill := 0
	for {
		for !sess.active {
			ex.Wait(sess.start)
		}
		if framesSinceRefill == 0 {
			// ~128 kbit/s: refill ~64 KiB every ~150 frames.
			ex.BlockRead(sess.bitstream, 64<<10)
		}
		framesSinceRefill = (framesSinceRefill + 1) % 150
		s.decodeMP3Frame(ex, sess)
		s.MP3FramesDecoded++
		ex.SleepFor(mp3FramePeriod)
	}
}

// decodeMP3Frame charges one frame of Huffman decode + IMDCT + synthesis
// (~500 instructions per output sample, the going rate for fixed-point MP3
// on ARMv7 without NEON).
func (s *Server) decodeMP3Frame(ex *kernel.Exec, sess *session) {
	// Bitstream parse: ~800 words of compressed input.
	ex.Do(kernel.Work{Fetch: 14, Reads: 1, Data: sess.bitstream}, 800)
	// Filterbank/IMDCT DSP on stack temporaries.
	ex.StackWork(300_000)
	// PCM out: 1152 samples × 2 ch × 2 B = one write per output word.
	ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: sess.track}, mp3FrameSamples*2)
	// Exercise the real byte path for a slice of the frame.
	b := sess.track.Slice(0, 256)
	for i := range b {
		b[i] = byte(i) ^ b[i]
	}
}

// videoDecodeLoop is a Stagefright AVC-class video decoder: per frame,
// entropy decode from the bitstream, motion compensation reading reference
// frames, and reconstruction written into the video gralloc surface.
func (s *Server) videoDecodeLoop(ex *kernel.Exec, sess *session) {
	ex.PushCode(s.stagefright)
	frames := 0
	for {
		for !sess.active {
			ex.Wait(sess.start)
		}
		if frames%30 == 0 {
			// ~2 Mbit/s stream: refill ~256 KiB per second of video.
			ex.BlockRead(sess.bitstream, 256<<10)
		}
		frames++
		s.decodeVideoFrame(ex, sess)
		s.FramesDecoded++
		if sess.surface != nil && s.comp != nil {
			sess.surface.Post(ex, s.comp)
		}
		ex.SleepFor(videoFramePeriod)
	}
}

func (s *Server) decodeVideoFrame(ex *kernel.Exec, sess *session) {
	w, h := gfx.ScreenW, gfx.ScreenH
	if sess.surface != nil {
		w, h = sess.surface.W, sess.surface.H
	}
	px := uint64(w) * uint64(h)
	// Entropy decode: ~1/16 of the pixels in compressed words.
	ex.Do(kernel.Work{Fetch: 16, Reads: 1, Data: sess.bitstream}, px/16)
	// Motion compensation: read reference frames (interpolation taps).
	ex.Do(kernel.Work{Fetch: 5, Reads: 2, Data: sess.refFrames}, px)
	// IDCT + reconstruction into the output surface.
	out := sess.refFrames
	if sess.surface != nil {
		out = sess.surface.Buf
	}
	ex.Do(kernel.Work{Fetch: 4, Writes: 1, Data: out}, px)
	// In-loop deblocking over reconstructed rows.
	ex.Do(kernel.Work{Fetch: 3, Reads: 1, Writes: 1, Data: out}, px/2)
	// Save reconstruction as the next reference.
	ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: sess.refFrames}, px/2)
}

// audioTrackLoop is the AudioTrack delivery thread: every mixer period it
// pulls PCM from the track buffer, applies volume/resampling, and hands the
// buffer to AudioFlinger (wakes the mixer).
func (s *Server) audioTrackLoop(ex *kernel.Exec, sess *session) {
	ex.PushCode(s.libmedia)
	words := uint64(sampleRateHz) * 2 * 2 / 4 * uint64(mixPeriod) / uint64(sim.Second)
	for {
		for !sess.active {
			ex.Wait(sess.start)
		}
		// Pull, then the resampler/volume chain (cubic interpolation
		// 44.1→48 kHz plus 16→32-bit staging: ~25 ops per sample).
		ex.Do(kernel.Work{Fetch: 4, Reads: 1, Data: sess.track}, words)
		ex.Do(kernel.Work{Fetch: 22, Reads: 1, Data: sess.track}, words*3)
		ex.Do(kernel.Work{Fetch: 6, Writes: 1, Data: sess.track}, words)
		ex.StackWork(10_000)
		s.mixKick.WakeOne()
		ex.SleepFor(mixPeriod)
	}
}

// mixerLoop is AudioFlinger's output thread: mix all active tracks into the
// hardware buffer.
func (s *Server) mixerLoop(ex *kernel.Exec) {
	ex.PushCode(s.libaudio)
	words := uint64(sampleRateHz) * 2 * 2 / 4 * uint64(mixPeriod) / uint64(sim.Second)
	for {
		active := 0
		for _, sess := range s.sessions {
			if sess.active {
				active++
				ex.Do(kernel.Work{Fetch: 2, Reads: 1, Data: sess.track}, words)
			}
		}
		if active > 0 {
			ex.Do(kernel.Work{Fetch: 1, Writes: 1, Data: s.hwBuf}, words)
			ex.Syscall(400, 80) // write to the audio device
			s.Mixes++
			ex.SleepFor(mixPeriod)
			continue
		}
		ex.Wait(s.mixKick)
	}
}

// Player is the client-side handle on a media session.
type Player struct {
	srv *Server
	id  int32
}

// Open creates a player session of the given kind ("mp3" or "mp4") via a
// Binder call from the client thread.
func Open(ex *kernel.Exec, d *binder.Driver, kind string) (*Player, error) {
	op := opOpenMP3
	if kind == "mp4" {
		op = opOpenMP4
	} else if kind != "mp3" {
		return nil, fmt.Errorf("media: unknown kind %q", kind)
	}
	svc, ok := d.Lookup("media.player")
	if !ok {
		return nil, fmt.Errorf("media: media.player not registered")
	}
	srv, ok := serverOf(svc)
	if !ok {
		return nil, fmt.Errorf("media: media.player is not a media server")
	}
	data := binder.NewParcel()
	data.WriteString("/sdcard/clip." + kind)
	reply, err := d.Call(ex, "media.player", op, data)
	if err != nil {
		return nil, err
	}
	id, err := reply.ReadInt32()
	if err != nil {
		return nil, err
	}
	return &Player{srv: srv, id: id}, nil
}

func serverOf(svc *binder.Service) (*Server, bool) {
	s, ok := svc.Owner.(*Server)
	return s, ok
}

// RegisterLookup records the service→server mapping on the service itself;
// NewServer callers do not need this unless they use Open (the high-level
// client API). The mapping lives on the per-machine service — not in a
// package-global table — so concurrent suite runs share no state and a
// finished machine is garbage-collectable.
func RegisterLookup(d *binder.Driver, s *Server) {
	if svc, ok := d.Lookup("media.player"); ok {
		svc.Owner = s
	}
}

// AttachSurface routes the client's surface to the server session.
func (p *Player) AttachSurface(surf *gfx.Surface) { p.srv.AttachSurface(p.id, surf) }

// Start begins playback (Binder call).
func (p *Player) Start(ex *kernel.Exec, d *binder.Driver) error {
	return p.call(ex, d, opStart, "start")
}

// Stop halts playback (Binder call).
func (p *Player) Stop(ex *kernel.Exec, d *binder.Driver) error {
	return p.call(ex, d, opStop, "stop")
}

// Seek repositions playback (Binder call): the mediaserver side walks the
// demux index and resyncs the bitstream from storage. This is the media
// half of an input-driven scrub — the UI's seekbar drag lands here.
func (p *Player) Seek(ex *kernel.Exec, d *binder.Driver) error {
	return p.call(ex, d, opSeek, "seek")
}

// call sends one player op for this session and turns a nonzero reply code
// into an error naming what failed.
func (p *Player) call(ex *kernel.Exec, d *binder.Driver, op int32, what string) error {
	data := binder.NewParcel()
	data.WriteInt32(p.id)
	reply, err := d.Call(ex, "media.player", op, data)
	if err != nil {
		return err
	}
	if rc, _ := reply.ReadInt32(); rc != 0 {
		return fmt.Errorf("media: %s failed (%d)", what, rc)
	}
	return nil
}

// StopOwned halts every session whose client is owner — the death
// notification path: when a client process dies, MediaPlayerService reaps
// its players so decoders and the mixer stop burning cycles on a stream
// nobody is listening to. Decode and delivery threads park on the session's
// start queue; a relaunched client opens fresh sessions. It reports how many
// sessions were stopped.
func (s *Server) StopOwned(owner *kernel.Process) int {
	n := 0
	for _, sess := range s.sessions {
		if sess.owner == owner && sess.active {
			sess.active = false
			n++
		}
	}
	return n
}

// AdoptSessions rebuilds the replacement server's session table after a
// mediaserver crash: every player session of the dead server is re-created
// under its old id — same kind, owner, surface, and play state, with fresh
// decoder threads and buffers in the new process — so client-held session
// handles keep working across the restart. Client-side stream tracks are
// not adopted: their mixer feed died with the old process, the way
// SoundPool effects cut out on a real device. Cumulative decode counters
// carry over so a run's totals span the crash. It reports how many
// in-flight (active) sessions were relaunched.
func (s *Server) AdoptSessions(old *Server) int {
	s.FramesDecoded = old.FramesDecoded
	s.MP3FramesDecoded = old.MP3FramesDecoded
	s.Mixes = old.Mixes
	s.Seeks = old.Seeks
	s.nextID = old.nextID
	s.nextStreamID = old.nextStreamID
	n := 0
	for _, sess := range old.sessions {
		if sess.id > streamIDBase {
			continue
		}
		ns := s.addSession(sess.id, sess.kind, sess.owner)
		ns.surface = sess.surface
		if sess.active {
			// The freshly spawned decode threads have not checked the
			// start gate yet; setting active before they first run is
			// enough for them to proceed.
			ns.active = true
			n++
		}
	}
	return n
}

// StreamTrack spawns a client-side "AudioTrackThread" in owner that
// continuously writes generated PCM into a private track shared with
// AudioFlinger — the SoundPool/AudioTrack path games use for sound effects.
func (s *Server) StreamTrack(owner *kernel.Process) {
	k := owner.Kernel()
	s.nextStreamID++
	sess := &session{
		id:     streamIDBase + s.nextStreamID,
		kind:   opOpenMP3,
		owner:  owner,
		active: true,
		start:  k.NewWaitQueue("media.stream"),
	}
	sess.track = s.Proc.AS.MapAnywhere(mem.MmapBase, trackBufSize,
		"ashmem/audio-track", mem.PermRead|mem.PermWrite, mem.ClassShared)
	sess.track.Shared = true
	clientTrack := owner.AS.MapShared(mem.MmapBase, sess.track, mem.PermRead|mem.PermWrite)
	s.sessions = append(s.sessions, sess)
	words := uint64(sampleRateHz) * 2 * 2 / 4 * uint64(mixPeriod) / uint64(sim.Second)
	k.SpawnThread(owner, "AudioTrackThread", "AudioTrackThread", func(ex *kernel.Exec) {
		lib := owner.AS.FindByName("libmedia.so")
		if lib == nil {
			lib = owner.Layout.Kernel
		}
		ex.PushCode(lib)
		for {
			// Generate/mix one period of PCM (SoundPool decode +
			// per-effect gain), then push into the shared track.
			ex.StackWork(12_000)
			ex.Do(kernel.Work{Fetch: 16, Reads: 1, Data: clientTrack}, words*2)
			ex.Do(kernel.Work{Fetch: 4, Writes: 1, Data: clientTrack}, words)
			s.mixKick.WakeOne()
			ex.SleepFor(mixPeriod)
		}
	})
}
