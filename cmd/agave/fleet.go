package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"

	"agave/internal/core"
	"agave/internal/fleet"
	"agave/internal/report"
	"agave/internal/suite"
)

// defaultShardSize is fleet's -shard-size default and the shard size suite
// folds its summary at, so both print one report for one plan.
const defaultShardSize = 8

// fleetFlags bundles the fleet-only flags.
type fleetFlags struct {
	workers    int
	shardSize  int
	checkpoint string
	worker     bool
}

// fleetWorkerCommand builds the worker subprocess invocation: this binary
// re-exec'd in worker mode. It is a seam so tests can substitute crashing or
// misbehaving workers. AGAVE_CLI_EXEC marks the child as a CLI invocation —
// the test binary's TestMain honors it, so the same re-exec works whether
// the coordinator is the installed binary or a test process.
var fleetWorkerCommand = func() (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "fleet", "-worker")
	cmd.Env = append(os.Environ(), "AGAVE_CLI_EXEC=1")
	return cmd, nil
}

// fleetRunLine executes one plan spec for the fleet: decode the engine
// config from the spec envelope, run the simulator, and render the result
// as its canonical wire line.
func fleetRunLine(cfgRaw json.RawMessage, spec suite.RunSpec) (fleet.Line, error) {
	var cfg core.Config
	if err := json.Unmarshal(cfgRaw, &cfg); err != nil {
		return fleet.Line{}, fmt.Errorf("decode config: %w", err)
	}
	r, _, err := core.RunOne(cfg, spec)
	if err != nil {
		return fleet.Line{}, err
	}
	return report.FleetLine(spec, r), nil
}

// fleetCmd executes the fleet subcommand. Worker mode reads a shard
// envelope from stdin and streams result lines to stdout; coordinator mode
// builds the plan (identically to the suite subcommand), shards it, and
// either runs it serially in-process (-workers 0) or dispatches worker
// subprocesses. The rendered report is byte-identical across all of these.
func fleetCmd(stdout, stderr io.Writer, cfg core.Config, ff fleetFlags, pf planFlags, asJSON bool) int {
	if ff.worker {
		if err := fleet.RunWorker(os.Stdin, stdout, fleetRunLine); err != nil {
			fmt.Fprintln(stderr, "agave fleet:", err)
			return 1
		}
		return 0
	}
	if ff.shardSize <= 0 {
		fmt.Fprintf(stderr, "agave fleet: -shard-size must be positive (got %d)\n", ff.shardSize)
		return 2
	}
	if ff.workers < 0 {
		fmt.Fprintf(stderr, "agave fleet: -workers must not be negative (got %d)\n", ff.workers)
		return 2
	}
	plan, code, ok := buildPlan(stderr, "fleet", cfg, pf)
	if !ok {
		return code
	}
	spec, err := report.FleetSpec(cfg, plan, ff.shardSize)
	if err != nil {
		fmt.Fprintln(stderr, "agave fleet:", err)
		return 1
	}
	var rep *fleet.Report
	if ff.workers == 0 {
		rep, err = fleet.RunSerial(spec, fleet.SerialOptions{
			Checkpoint: ff.checkpoint,
			Progress:   stderr,
			Run:        fleetRunLine,
		})
	} else {
		rep, err = fleet.Run(spec, fleet.Options{
			Workers:    ff.workers,
			Command:    fleetWorkerCommand,
			Checkpoint: ff.checkpoint,
			Progress:   stderr,
		})
	}
	if err != nil {
		fmt.Fprintln(stderr, "agave fleet:", err)
		return 1
	}
	if asJSON {
		if err := report.WriteFleetJSON(stdout, rep); err != nil {
			fmt.Fprintln(stderr, "agave fleet:", err)
			return 1
		}
		return 0
	}
	report.WriteFleetText(stdout, rep)
	return 0
}
