package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"sync"
	"time"

	"agave/internal/suite"
)

// Options configures a fleet coordinator run.
type Options struct {
	// Workers is how many worker subprocesses run concurrently. It bounds
	// concurrency only — shard geometry, and therefore the report, never
	// depends on it. Values < 1 are treated as 1.
	Workers int
	// Command builds one worker subprocess invocation. The coordinator
	// sets its Stdin (the shard envelope), Stdout, and Stderr.
	Command func() (*exec.Cmd, error)
	// Checkpoint, when non-empty, is the journal path: completed shards
	// append to it, and an existing compatible journal is resumed.
	Checkpoint string
	// Progress, when non-nil, receives operator-facing progress lines.
	Progress io.Writer
}

// stderrLimit caps how much worker stderr the coordinator retains for error
// reports — enough to diagnose, bounded so a pathological worker can't
// balloon coordinator memory.
const stderrLimit = 64 << 10

// cappedBuffer retains the first stderrLimit bytes written to it.
type cappedBuffer struct {
	buf       bytes.Buffer
	truncated bool
}

func (b *cappedBuffer) Write(p []byte) (int, error) {
	if room := stderrLimit - b.buf.Len(); room > 0 {
		if len(p) > room {
			b.buf.Write(p[:room])
			b.truncated = true
		} else {
			b.buf.Write(p)
		}
	} else if len(p) > 0 {
		b.truncated = true
	}
	return len(p), nil
}

func (b *cappedBuffer) String() string {
	s := b.buf.String()
	if b.truncated {
		s += "\n[stderr truncated]"
	}
	return s
}

// trailerPrefix distinguishes the worker trailer from result lines. The
// trailer is canonical json.Marshal output of Trailer, whose first field is
// Done — the prefix is part of the wire protocol, not a heuristic.
var trailerPrefix = []byte(`{"done":true`)

// Run executes the fleet: it shards the spec's plan, dispatches shards to
// worker subprocesses in shard order through suite.Each, folds their
// streamed result lines through the aggregator, and returns the final
// report. On any worker failure it stops dispatching, lets in-flight shards
// finish (their partials still checkpoint), and returns the error of the
// smallest failed shard id — the same shard a serial run would have failed
// at first.
func Run(spec *Spec, opts Options) (*Report, error) {
	_, agg, cp, err := prepare(spec, opts.Checkpoint, opts.Progress)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		defer cp.Close()
	}

	envBase := Envelope{PlanHash: agg.planHash, Spec: *spec}
	start := time.Now() //agave:allow walltime coordinator progress reporting is operator-facing; nothing derived from it enters the report or the fingerprint
	var mu sync.Mutex
	progress := func(done int) {
		if opts.Progress == nil {
			return
		}
		elapsed := time.Since(start).Round(time.Millisecond) //agave:allow walltime same display-only measurement as the paired time.Now above
		fmt.Fprintf(opts.Progress, "fleet: %d/%d shards (%s)\n", done, agg.shards, elapsed)
	}
	runShard := func(shard int) error {
		mu.Lock()
		restored := agg.Restored(shard)
		mu.Unlock()
		if restored {
			return nil
		}
		env := envBase
		env.Shard = shard
		envData, err := json.Marshal(env)
		if err != nil {
			return fmt.Errorf("fleet: shard %d: encode envelope: %w", shard, err)
		}
		cmd, err := opts.Command()
		if err != nil {
			return fmt.Errorf("fleet: shard %d: build worker command: %w", shard, err)
		}
		cmd.Stdin = bytes.NewReader(envData)
		var stderr cappedBuffer
		cmd.Stderr = &stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return fmt.Errorf("fleet: shard %d: %w", shard, err)
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("fleet: shard %d: start worker: %w", shard, err)
		}
		fail := func(format string, args ...any) error {
			cmd.Process.Kill()
			cmd.Wait()
			msg := fmt.Sprintf(format, args...)
			if s := stderr.String(); s != "" {
				msg += "\nworker stderr:\n" + s
			}
			return fmt.Errorf("fleet: shard %d: %s", shard, msg)
		}
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		var line Line
		var trailer *Trailer
		for sc.Scan() {
			raw := sc.Bytes()
			if trailer != nil {
				return fail("trailing garbage after trailer: %.80q", raw)
			}
			if bytes.HasPrefix(raw, trailerPrefix) {
				t := new(Trailer)
				if err := json.Unmarshal(raw, t); err != nil {
					return fail("malformed trailer: %v", err)
				}
				if t.Shard != shard {
					return fail("trailer names shard %d", t.Shard)
				}
				trailer = t
				continue
			}
			if err := DecodeLine(raw, &line); err != nil {
				return fail("malformed result line: %v (line: %.80q)", err, raw)
			}
			mu.Lock()
			err := agg.Observe(shard, raw, &line)
			mu.Unlock()
			if err != nil {
				return fail("%v", err)
			}
		}
		if err := sc.Err(); err != nil {
			return fail("read worker output: %v", err)
		}
		if err := cmd.Wait(); err != nil {
			return fail("worker failed: %v", err)
		}
		if trailer == nil {
			return fail("worker exited without a trailer")
		}
		mu.Lock()
		defer mu.Unlock()
		p, err := agg.FinishShard(shard, trailer.Lines, trailer.Digest)
		if err != nil {
			if s := stderr.String(); s != "" {
				return fmt.Errorf("%w\nworker stderr:\n%s", err, s)
			}
			return err
		}
		if cp != nil {
			if err := cp.Append(p); err != nil {
				return err
			}
		}
		progress(agg.next + len(agg.pending))
		return nil
	}
	if err := suite.Each(opts.Workers, agg.shards, runShard); err != nil {
		return nil, err
	}
	return agg.Report()
}

// prepare is the preamble Run and RunSerial share: it validates the spec,
// builds its aggregator, and opens the journal at checkpoint (empty means
// no checkpointing), restoring any journaled shards into the aggregator
// and noting the resume on progress.
func prepare(spec *Spec, checkpoint string, progress io.Writer) (suite.Plan, *Aggregator, *Checkpoint, error) {
	if spec.ShardSize <= 0 {
		return suite.Plan{}, nil, nil, fmt.Errorf("fleet: shard size must be positive (got %d)", spec.ShardSize)
	}
	hash, err := spec.Hash()
	if err != nil {
		return suite.Plan{}, nil, nil, err
	}
	plan, err := spec.Plan.SuitePlan()
	if err != nil {
		return suite.Plan{}, nil, nil, err
	}
	total := plan.Size()
	agg := NewAggregator(total, spec.ShardSize, hash)
	if checkpoint == "" {
		return plan, agg, nil, nil
	}
	want := Header{PlanHash: hash, Runs: total, Shards: agg.shards, ShardSize: spec.ShardSize}
	if _, err := os.Stat(checkpoint); err != nil {
		if !os.IsNotExist(err) {
			return suite.Plan{}, nil, nil, fmt.Errorf("checkpoint %s: %w", checkpoint, err)
		}
		cp, err := CreateCheckpoint(checkpoint, want)
		return plan, agg, cp, err
	}
	partials, cp, err := OpenCheckpoint(checkpoint, want)
	if err != nil {
		return suite.Plan{}, nil, nil, err
	}
	sort.Slice(partials, func(i, j int) bool { return partials[i].Shard < partials[j].Shard })
	for _, p := range partials {
		if err := agg.Restore(p); err != nil {
			cp.Close()
			return suite.Plan{}, nil, nil, err
		}
	}
	if len(partials) > 0 && progress != nil {
		fmt.Fprintf(progress, "fleet: resumed %d of %d shards from %s\n", len(partials), agg.shards, checkpoint)
	}
	return plan, agg, cp, nil
}
