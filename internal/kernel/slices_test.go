package kernel

import (
	"fmt"
	"testing"

	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

// The per-chunk loops that Do, Copy and charge replaced, kept as the
// reference the quantum-slice versions must match tick for tick.

func refCharge(ex *Exec, n uint64) {
	for n > chunk {
		ex.ctx.Charge(chunk)
		n -= chunk
	}
	if n > 0 {
		ex.ctx.Charge(sim.Ticks(n))
	}
}

func refFetch(ex *Exec, n uint64) {
	if n == 0 {
		return
	}
	ex.account(ex.CurrentCode().Region, stats.IFetch, n)
	refCharge(ex, n)
}

func refDo(ex *Exec, w Work, iters uint64) {
	if iters == 0 {
		return
	}
	code := ex.CurrentCode().Region
	perIter := w.Fetch
	if perIter == 0 {
		perIter = 1
	}
	step := uint64(chunk) / perIter
	if step == 0 {
		step = 1
	}
	for done := uint64(0); done < iters; {
		n := min(step, iters-done)
		ex.account(code, stats.IFetch, n*w.Fetch)
		if w.Data != nil {
			ex.account(w.Data.Region, stats.DataRead, n*w.Reads)
			ex.account(w.Data.Region, stats.DataWrite, n*w.Writes)
		}
		refCharge(ex, n*w.Fetch)
		done += n
	}
}

func refCopy(ex *Exec, dst, src *mem.VMA, words, fetchPerWord uint64) {
	code := ex.CurrentCode().Region
	for done := uint64(0); done < words; {
		n := min(uint64(chunk), words-done)
		ex.account(code, stats.IFetch, n*fetchPerWord)
		ex.account(src.Region, stats.DataRead, n)
		ex.account(dst.Region, stats.DataWrite, n)
		refCharge(ex, n*fetchPerWord)
		done += n
	}
}

// helpers is one implementation of the bulk helpers under comparison.
type helpers struct {
	fetch func(ex *Exec, n uint64)
	do    func(ex *Exec, w Work, iters uint64)
	copy  func(ex *Exec, dst, src *mem.VMA, words, fetchPerWord uint64)
}

var (
	sliced   = helpers{(*Exec).Fetch, (*Exec).Do, (*Exec).Copy}
	perChunk = helpers{refFetch, refDo, refCopy}
)

// bulkCase is one run of the exactness grid: after a leading fetch of
// offset ticks, the bulk thread runs body, while a second process's thread
// competes for the CPU. With killAt set, a third thread kills the bulk
// process at that tick, and the bulk body must not finish.
type bulkCase struct {
	name    string
	quantum sim.Ticks
	offset  uint64
	killAt  sim.Ticks
	body    func(h helpers, ex *Exec, p *Process)
}

// bulkMachine boots c's machine with h as the bulk helpers; finished
// reports whether the bulk body returned.
func bulkMachine(t *testing.T, c bulkCase, h helpers) (k *Kernel, bulk *Thread, finished *bool) {
	k = New(Config{Quantum: c.quantum, Seed: 1})
	t.Cleanup(k.Shutdown)
	finished = new(bool)
	p := k.NewProcess("bulk", 1<<20, 1<<20)
	bulk = k.SpawnThread(p, "main", "main", func(ex *Exec) {
		ex.PushCode(p.Layout.Text)
		h.fetch(ex, c.offset)
		c.body(h, ex, p)
		*finished = true
	})
	q := k.NewProcess("rival", 1<<20, 1<<20)
	k.SpawnThread(q, "main", "main", func(ex *Exec) {
		ex.PushCode(q.Layout.Text)
		for {
			h.do(ex, Work{Fetch: 2, Reads: 1, Data: q.Layout.Heap}, 350)
		}
	})
	if c.killAt > 0 {
		r := k.NewProcess("killer", 1<<20, 1<<20)
		k.SpawnThread(r, "main", "main", func(ex *Exec) {
			ex.ctx.Sleep(c.killAt)
			ex.K.KillProcess(p)
		})
	}
	return k, bulk, finished
}

// TestSlicesMatchPerChunkLoops steps a machine running the quantum-slice
// helpers and one running the per-chunk reference one quantum at a time,
// and requires the same clock and the same attributed counts after every
// quantum: the slices must yield on the same tick with the same counts.
func TestSlicesMatchPerChunkLoops(t *testing.T) {
	var cases []bulkCase
	quanta := []sim.Ticks{1000, chunk, sim.Millisecond / 2, sim.Millisecond, 4 * sim.Millisecond}
	for _, q := range quanta {
		// Nonzero offsets start the bulk work mid-chunk; q%chunk leaves a
		// whole number of chunks in the first quantum, where an off-by-one
		// in the slice count shows.
		offsets := []uint64{0, 1, 777, chunk - 1}
		if r := uint64(q) % chunk; r != 0 {
			offsets = append(offsets, r)
		}
		for _, off := range offsets {
			for _, f := range []uint64{0, 1, 3, 4095, 4096, 5000} {
				step := max(uint64(chunk)/max(f, 1), 1)
				// Long enough to cross two and a half quanta.
				span := uint64(q)*5/2/max(f, 1) + 3
				if f == 0 {
					span = 3*step + 5
				}
				counts := []uint64{1, step - 1, step, step + 1, 3*step + 1, span}
				cases = append(cases, bulkCase{
					name: fmt.Sprintf("q%d/off%d/do-fetch%d", q, off, f), quantum: q, offset: off,
					body: func(h helpers, ex *Exec, p *Process) {
						for _, n := range counts {
							h.do(ex, Work{Fetch: f, Reads: 2, Writes: 1, Data: p.Layout.Heap}, n)
						}
					},
				})
			}
			cases = append(cases, bulkCase{
				name: fmt.Sprintf("q%d/off%d/copy-and-fetch", q, off), quantum: q, offset: off,
				body: func(h helpers, ex *Exec, p *Process) {
					anon := p.Layout.MapAnon(p.AS, 1<<16)
					for _, words := range []uint64{1, chunk - 1, chunk, chunk + 1, uint64(q)*5/4 + 3} {
						h.copy(ex, anon, p.Layout.Heap, words, 2)
					}
					h.fetch(ex, uint64(q)*5/2+chunk+1)
					h.fetch(ex, 3*chunk)
				},
			})
		}
	}
	for _, q := range []sim.Ticks{1000, sim.Millisecond} {
		cases = append(cases, bulkCase{
			name: fmt.Sprintf("q%d/kill-mid-do", q), quantum: q, offset: 777, killAt: 4*q + 123,
			body: func(h helpers, ex *Exec, p *Process) {
				h.do(ex, Work{Fetch: 3, Reads: 1, Data: p.Layout.Heap}, uint64(q)*10)
			},
		})
	}

	for _, c := range cases {
		got, gotBulk, gotDone := bulkMachine(t, c, sliced)
		want, wantBulk, wantDone := bulkMachine(t, c, perChunk)
		for step := 0; gotBulk.State != StateExited || wantBulk.State != StateExited; step++ {
			if step == 10_000 {
				t.Fatalf("%s: bulk thread still running after %d quanta", c.name, step)
			}
			got.Run(got.Clock.Now() + 1)
			want.Run(want.Clock.Now() + 1)
			if g, w := got.Clock.Now(), want.Clock.Now(); g != w {
				t.Fatalf("%s: after quantum %d the clock reads %d, per-chunk %d", c.name, step, g, w)
			}
			if g, w := got.Stats.Fingerprint(), want.Stats.Fingerprint(); g != w {
				t.Fatalf("%s: after quantum %d (clock %d) the counts differ from per-chunk:\n got %v\nwant %v",
					c.name, step, got.Clock.Now(), got.Stats.Entries(), want.Stats.Entries())
			}
		}
		if *gotDone != *wantDone || *gotDone == (c.killAt > 0) {
			t.Fatalf("%s: bulk body finished %v, per-chunk %v, killed at %d", c.name, *gotDone, *wantDone, c.killAt)
		}
		got.Shutdown()
		want.Shutdown()
	}
}
