package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// profiles holds the -cpuprofile and -memprofile outputs of one invocation.
// Host profiling lives in package main only: the simulator's packages never
// see the host clock.
type profiles struct {
	cpu, mem *os.File
}

// startProfiles creates the requested profile files before anything runs, so
// a bad path fails fast, and starts the CPU profile.
func startProfiles(cpuPath, memPath string) (*profiles, error) {
	p := &profiles{}
	var err error
	if memPath != "" {
		if p.mem, err = os.Create(memPath); err != nil {
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpuPath != "" {
		if p.cpu, err = os.Create(cpuPath); err == nil {
			if err = pprof.StartCPUProfile(p.cpu); err != nil {
				p.cpu.Close()
			}
		}
		if err != nil {
			if p.mem != nil {
				p.mem.Close()
			}
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return p, nil
}

// stop ends the CPU profile and writes the heap profile, taken after a GC so
// its live-heap figures are current.
func (p *profiles) stop() error {
	var errs []error
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
		}
	}
	if p.mem != nil {
		runtime.GC()
		err := pprof.WriteHeapProfile(p.mem)
		if cerr := p.mem.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("-memprofile: %w", err))
		}
	}
	return errors.Join(errs...)
}
