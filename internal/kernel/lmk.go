package kernel

import (
	"agave/internal/sim"
)

// The lowmemorykiller model: Gingerbread's staticly-configured kernel driver
// that frees memory under pressure by SIGKILLing the process with the worst
// oom_adj score. Here it runs as the kswapd0 kernel thread: every scan
// period it compares free pages against the minfree ladder and, when a rung
// is crossed, kills the highest-adj (largest-RSS on ties) process at or
// above that rung's adj floor. Kill timing is therefore a consequence of
// load — which apps are resident, how big their heaps are, what the balloon
// demands — not of any scripted timeline.

// MinFree is one lowmemorykiller rung: when free pages fall below Pages,
// processes with OomAdj >= Adj become victims.
type MinFree struct {
	Pages uint64
	Adj   int
}

// Gingerbread-flavoured oom_adj landmarks. The kernel only compares them;
// the ActivityManager model (internal/android) assigns them.
const (
	// OomNeverKill marks processes the killer must never touch: kernel
	// threads, init, daemons, zygote, system_server — everything that is
	// not a framework-managed app.
	OomNeverKill = -17
	// OomForeground is the app the user is interacting with.
	OomForeground = 0
	// OomVisible is an app still visible on screen (status bar).
	OomVisible = 1
	// OomPerceptible is an app the user notices without seeing it —
	// background music playback, an in-progress sync.
	OomPerceptible = 2
	// OomHome is the launcher.
	OomHome = 6
	// OomCachedMin..OomCachedMax is the cached-app LRU: a backgrounded
	// app's score grows as it ages down the recency list.
	OomCachedMin = 9
	OomCachedMax = 15
)

// DefaultMemPages is the default physical budget of a pressure-enabled
// machine: 262144 4 KiB pages = 1 GB. The accounting deliberately
// over-counts against real handsets (full stacks and dalvik arenas count
// resident, shared pages count once per address space), so the budget is
// sized to leave the bundled non-pressure scenarios comfortable headroom
// while Pressure events can still starve the machine.
const DefaultMemPages = 262144

// DefaultMinFreePages is the default cached-app kill waterline (pages free)
// the rest of the ladder is derived from: 8192 pages = 32 MB.
const DefaultMinFreePages = 8192

// lmkScanPeriod is how often kswapd0 re-evaluates the ladder. One kill per
// scan, as the real shrinker kills one task per invocation.
const lmkScanPeriod = 10 * sim.Millisecond

// DefaultMinFree derives the graduated minfree ladder from the cached-app
// waterline: cached apps go first, visible/perceptible apps at half the
// waterline, and only a machine within a quarter of it kills the foreground.
func DefaultMinFree(cached uint64) []MinFree {
	if cached == 0 {
		cached = DefaultMinFreePages
	}
	return []MinFree{
		{Pages: cached, Adj: OomCachedMin},
		{Pages: cached / 2, Adj: OomVisible},
		{Pages: cached / 4, Adj: OomForeground},
	}
}

// lmkState is the killer's bookkeeping on the kernel.
type lmkState struct {
	proc    *Process
	deaths  *MsgQueue
	kills   int
	victims []string
}

// LMKEnabled reports whether the lowmemorykiller is active in this machine.
func (k *Kernel) LMKEnabled() bool {
	return k.Cfg.MemPages > 0 && len(k.Cfg.MinFree) > 0
}

// LMKKills reports how many processes the lowmemorykiller has killed.
func (k *Kernel) LMKKills() int { return k.lmk.kills }

// LMKVictims reports the names of killed processes, in kill order.
func (k *Kernel) LMKVictims() []string { return k.lmk.victims }

// DeathQueue is the mailbox LMK victims are announced on. The framework's
// ActivityManager model consumes it to perform the userspace half of a
// process death (binder teardown, media session stop, hiding the surface;
// the surface itself stays in the compositor's list). Non-nil only when
// the killer is enabled.
func (k *Kernel) DeathQueue() *MsgQueue { return k.lmk.deaths }

// startLMK brings up the kswapd0 kernel thread and the death queue.
func (k *Kernel) startLMK() {
	k.lmk.proc = k.NewKernelProcess("kswapd0")
	k.lmk.deaths = k.NewMsgQueue("lmk.deaths")
	k.SpawnThread(k.lmk.proc, "kswapd0", "kswapd0", func(ex *Exec) {
		for {
			ex.SleepFor(lmkScanPeriod)
			k.lmkScan(ex)
		}
	})
}

// lmkScan is one shrinker pass: find the lowest adj floor whose rung is
// crossed, pick the worst victim at or above it, and kill it.
func (k *Kernel) lmkScan(ex *Exec) {
	// Watermark bookkeeping happens every pass, pressure or not.
	ex.Syscall(160, 40)
	free := k.FreePages()
	minAdj, triggered := 0, false
	for _, rung := range k.Cfg.MinFree {
		if free < rung.Pages && (!triggered || rung.Adj < minAdj) {
			minAdj = rung.Adj
			triggered = true
		}
	}
	if !triggered {
		return
	}
	victim := k.selectVictim(minAdj)
	if victim == nil {
		return
	}
	// Task-list scan plus the SIGKILL and unmap work of the kill itself.
	ex.Syscall(uint64(600+20*len(k.procs)), 200)
	k.lmk.kills++
	k.lmk.victims = append(k.lmk.victims, victim.Name)
	k.KillProcess(victim)
	ex.Send(k.lmk.deaths, victim)
}

// selectVictim picks the process the killer frees: among live processes with
// OomAdj >= minAdj, the highest adj wins; ties go to the largest resident
// set, then the lowest PID, so selection is fully deterministic. It scans
// the live index, so its cost does not grow with processes already dead.
func (k *Kernel) selectVictim(minAdj int) *Process {
	var victim *Process
	for _, p := range k.live {
		if p.OomAdj < minAdj || p.LiveThreads() == 0 {
			continue
		}
		if victim == nil ||
			p.OomAdj > victim.OomAdj ||
			(p.OomAdj == victim.OomAdj && p.AS.ResidentPages() > victim.AS.ResidentPages()) {
			victim = p
		}
	}
	return victim
}
