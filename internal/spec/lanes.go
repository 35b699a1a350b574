package spec

import (
	"runtime"
	"sync"
)

// lanes computes a lane kernel's step terms on n = runtime.GOMAXPROCS(0)
// lanes, ahead of the simulated thread that folds them. Lane 0 is the
// simulated thread itself. Lane l >= 1 is a goroutine that computes steps l,
// l+n, l+2n, ... on its own scratch and hands each term over out[l], a
// one-slot channel, so it is at most two terms ahead of the fold: a run
// computes at most 2(n-1) terms it never folds. A lane reads nothing but its
// step numbers and the run's immutable inputs, and the simulated thread
// stays the only writer of Env, so results do not depend on n. Lanes are
// host helpers, not simulated threads: they charge nothing and the
// scheduler never sees them.
type lanes struct {
	term   func(lane int, iter uint64) uint64
	out    []chan uint64 // out[l] carries lane l's terms in step order; out[0] is nil
	done   chan struct{} // closed by stop
	exited sync.WaitGroup
}

// startLanes builds a lane kernel's inputs and lane scratch through terms and
// starts the helper lanes. With n = 1 it starts no goroutine.
func startLanes(terms func(n int) func(lane int, iter uint64) uint64) *lanes {
	n := runtime.GOMAXPROCS(0)
	ls := &lanes{term: terms(n), out: make([]chan uint64, n), done: make(chan struct{})}
	ls.exited.Add(n - 1)
	for l := 1; l < n; l++ {
		ls.out[l] = make(chan uint64, 1)
		go ls.run(l, ls.out[l])
	}
	return ls
}

// run is helper lane l: it computes its steps in order until stop.
func (ls *lanes) run(l int, out chan<- uint64) {
	defer ls.exited.Done()
	n := uint64(len(ls.out))
	for iter := uint64(l); ; iter += n {
		t := ls.term(l, iter)
		select {
		case out <- t:
		case <-ls.done:
			return
		}
	}
}

// next returns step iter's term. The fold calls it for iter 0, 1, 2, ... in
// order; lane 0's steps are computed here, on the calling thread.
func (ls *lanes) next(iter uint64) uint64 {
	l := int(iter % uint64(len(ls.out)))
	if l == 0 {
		return ls.term(0, iter)
	}
	return <-ls.out[l]
}

// stop ends the helper lanes and returns once they have exited. Each exits
// at its next hand-off, after at most the term it is computing. stop charges
// nothing and never waits on the simulation, so a killed thread body may
// defer it.
func (ls *lanes) stop() {
	close(ls.done)
	ls.exited.Wait()
}
