package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain lets this test binary double as the agave CLI: fleet coordinator
// tests re-exec it with AGAVE_CLI_EXEC=1 — both as `fleet -worker`
// subprocess workers and as full subprocess coordinators for the
// SIGKILL/resume test — and the guard routes those invocations into Main
// instead of the test runner.
func TestMain(m *testing.M) {
	if os.Getenv("AGAVE_CLI_EXEC") == "1" {
		os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// fleetPlan is the conformance plan: one benchmark plus a chaos scenario
// (mediaserver-meltdown drives the fault-injection plane) and a pressure
// scenario (memory-storm drives the lowmemorykiller), across two seeds.
var fleetPlan = []string{
	"-bench", "countdown.main",
	"-scenarios", "mediaserver-meltdown,memory-storm",
	"-seeds", "1,2",
	"-shard-size", "2",
}

func fleetArgs(extra ...string) []string {
	args := append([]string{"fleet"}, fleetPlan...)
	args = append(args, quick...)
	return append(args, extra...)
}

// TestFleetFingerprintMatchesSerial is the end-to-end equivalence
// conformance test: the JSON report (fingerprint included) of subprocess
// fleets at 1, 2, and 8 workers must be byte-identical to the serial
// in-process run of the same plan.
func TestFleetFingerprintMatchesSerial(t *testing.T) {
	code, serialOut, errOut := invoke(t, fleetArgs("-json", "-workers", "0")...)
	if code != 0 {
		t.Fatalf("serial fleet: code=%d stderr=%q", code, errOut)
	}
	if !strings.Contains(serialOut, `"fingerprint"`) {
		t.Fatalf("serial fleet report carries no fingerprint:\n%s", serialOut)
	}
	for _, workers := range []int{1, 2, 8} {
		code, out, errOut := invoke(t, fleetArgs("-json", "-workers", fmt.Sprint(workers))...)
		if code != 0 {
			t.Fatalf("fleet -workers %d: code=%d stderr=%q", workers, code, errOut)
		}
		if out != serialOut {
			t.Errorf("fleet -workers %d report differs from serial:\n%s\nwant:\n%s", workers, out, serialOut)
		}
	}
}

// TestFleetTextReport sanity-checks the human-readable rendering.
func TestFleetTextReport(t *testing.T) {
	code, out, errOut := invoke(t, fleetArgs("-workers", "0")...)
	if code != 0 {
		t.Fatalf("code=%d stderr=%q", code, errOut)
	}
	for _, want := range []string{"fleet: 6 runs in 3 shards of 2", "countdown.main", "scenario:memory-storm", "fingerprint: "} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet text missing %q:\n%s", want, out)
		}
	}
}

// TestFleetWorkerCrashResume kills a worker subprocess mid-fleet, then
// resumes from the checkpoint with healthy workers and requires the final
// report to be byte-identical to an uninterrupted run.
func TestFleetWorkerCrashResume(t *testing.T) {
	_, coldOut, _ := invoke(t, fleetArgs("-json", "-workers", "0")...)
	dir := t.TempDir()
	cp := filepath.Join(dir, "fleet.ckpt")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The first invocation to win the mkdir race SIGKILLs itself; the rest
	// exec the real worker.
	script := fmt.Sprintf(`if mkdir %q 2>/dev/null; then kill -KILL $$; else exec %q fleet -worker; fi`,
		filepath.Join(dir, "crashed"), exe)
	orig := fleetWorkerCommand
	fleetWorkerCommand = func() (*exec.Cmd, error) {
		cmd := exec.Command("/bin/sh", "-c", script)
		cmd.Env = append(os.Environ(), "AGAVE_CLI_EXEC=1")
		return cmd, nil
	}
	code, _, errOut := invoke(t, fleetArgs("-workers", "2", "-checkpoint", cp)...)
	fleetWorkerCommand = orig
	if code == 0 {
		t.Fatalf("fleet with crashing worker succeeded (stderr=%q)", errOut)
	}
	if !strings.Contains(errOut, "fleet: shard") {
		t.Fatalf("crash error names no shard: %q", errOut)
	}
	code, out, errOut := invoke(t, fleetArgs("-json", "-workers", "2", "-checkpoint", cp)...)
	if code != 0 {
		t.Fatalf("resumed fleet: code=%d stderr=%q", code, errOut)
	}
	if out != coldOut {
		t.Errorf("resumed fleet report differs from uninterrupted run:\n%s\nwant:\n%s", out, coldOut)
	}
}

// TestFleetCoordinatorKillResume SIGKILLs the whole coordinator process
// after at least one shard has journaled, resumes in a fresh process, and
// requires the report to match the uninterrupted run.
func TestFleetCoordinatorKillResume(t *testing.T) {
	_, coldOut, _ := invoke(t, fleetArgs("-json", "-workers", "0")...)
	cp := filepath.Join(t.TempDir(), "fleet.ckpt")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	args := fleetArgs("-json", "-workers", "1", "-checkpoint", cp)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "AGAVE_CLI_EXEC=1")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Kill once the journal holds at least one completed shard (header
	// plus one record). If the run wins the race and finishes first, the
	// resume below degenerates to a no-op replay — still a valid check.
	killed := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		data, err := os.ReadFile(cp)
		if err == nil && bytes.Count(data, []byte("\n")) >= 2 {
			if cmd.Process.Signal(syscall.SIGKILL) == nil {
				killed = true
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	cmd.Wait()
	code, out, errOut := invoke(t, fleetArgs("-json", "-workers", "1", "-checkpoint", cp)...)
	if code != 0 {
		t.Fatalf("resumed coordinator: code=%d stderr=%q", code, errOut)
	}
	if out != coldOut {
		t.Errorf("post-SIGKILL resume differs from uninterrupted run (killed=%v):\n%s\nwant:\n%s", killed, out, coldOut)
	}
	if killed && !strings.Contains(errOut, "resumed") {
		t.Errorf("resume after SIGKILL did not report restored shards: %q", errOut)
	}
}

// TestFleetStaleCheckpointRejected pins the CLI-level stale-plan-hash
// error: a checkpoint journaled under one plan must refuse a different one.
func TestFleetStaleCheckpointRejected(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "fleet.ckpt")
	code, _, errOut := invoke(t, fleetArgs("-workers", "0", "-checkpoint", cp)...)
	if code != 0 {
		t.Fatalf("first fleet run failed: %q", errOut)
	}
	args := append([]string{"fleet", "-bench", "countdown.main", "-seeds", "3,4", "-shard-size", "2"}, quick...)
	code, _, errOut = invoke(t, append(args, "-workers", "0", "-checkpoint", cp)...)
	if code != 1 || !strings.Contains(errOut, "stale plan hash") ||
		!strings.Contains(errOut, "delete it or rerun that plan") {
		t.Fatalf("stale checkpoint: code=%d stderr=%q", code, errOut)
	}
}

// TestFleetWorkerFailurePaths pins that worker misbehavior surfaces the
// shard id and worker stderr through the CLI, without hanging.
func TestFleetWorkerFailurePaths(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		script string
		env    []string
		want   []string
	}{
		{
			name:   "nonzero exit",
			script: `cat >/dev/null; echo boom >&2; exit 3`,
			want:   []string{"fleet: shard 0", "exit status 3", "worker stderr", "boom"},
		},
		{
			name:   "malformed json",
			script: `cat >/dev/null; echo not-json`,
			want:   []string{"fleet: shard 0", "malformed result line"},
		},
		{
			name:   "trailing garbage",
			script: fmt.Sprintf(`%q fleet -worker; echo garbage-after-trailer`, exe),
			env:    []string{"AGAVE_CLI_EXEC=1"},
			want:   []string{"fleet: shard 0", "trailing garbage"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			orig := fleetWorkerCommand
			defer func() { fleetWorkerCommand = orig }()
			fleetWorkerCommand = func() (*exec.Cmd, error) {
				cmd := exec.Command("/bin/sh", "-c", tc.script)
				cmd.Env = append(os.Environ(), tc.env...)
				return cmd, nil
			}
			code, _, errOut := invoke(t, fleetArgs("-workers", "1")...)
			if code != 1 {
				t.Fatalf("code=%d stderr=%q", code, errOut)
			}
			for _, want := range tc.want {
				if !strings.Contains(errOut, want) {
					t.Errorf("stderr %q does not mention %q", errOut, want)
				}
			}
		})
	}
}

// TestFleetFlagValidation pins the fleet-only usage errors.
func TestFleetFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad shard size", fleetArgs("-shard-size", "0"), "-shard-size must be positive"},
		{"negative workers", fleetArgs("-workers", "-1"), "-workers must not be negative"},
		{"workers on suite", append([]string{"suite", "-bench", "countdown.main", "-workers", "2"}, quick...),
			"flag provided but not defined: -workers"},
		{"checkpoint on run", append([]string{"run", "countdown.main", "-checkpoint", "x"}, quick...),
			"flag provided but not defined: -checkpoint"},
		{"seeds on worker", []string{"fleet", "-worker", "-seeds", "1,2,3"},
			"-worker reads its plan and config from stdin; -seeds cannot be combined with it"},
		{"bench on worker", []string{"fleet", "-worker", "-bench", "bogus"},
			"-worker reads its plan and config from stdin; -bench cannot be combined with it"},
		{"duration on worker", []string{"fleet", "-worker", "-duration", "80"},
			"-worker reads its plan and config from stdin; -duration cannot be combined with it"},
		{"ablations on worker", []string{"fleet", "-worker", "-ablations"},
			"-worker reads its plan and config from stdin; -ablations cannot be combined with it"},
		{"workers on worker", []string{"fleet", "-worker", "-workers", "2"},
			"-worker reads its plan and config from stdin; -workers cannot be combined with it"},
	}
	for _, tc := range cases {
		code, _, errOut := invoke(t, tc.args...)
		if code != 2 || !strings.Contains(errOut, tc.want) {
			t.Errorf("%s: code=%d stderr=%q (want %q)", tc.name, code, errOut, tc.want)
		}
	}
}
