package fleet

import (
	"fmt"
	"io"

	"agave/internal/suite"
)

// SerialOptions configures an in-process serial fleet run.
type SerialOptions struct {
	// Checkpoint, when non-empty, journals completed shards exactly like
	// the subprocess coordinator, so a serial run can also resume.
	Checkpoint string
	// Progress, when non-nil, receives operator-facing progress lines.
	Progress io.Writer
	// Run executes one spec.
	Run RunFunc
}

// RunSerial executes the whole plan in this process, shard by shard in
// shard order, through the same aggregator and checkpoint code path the
// subprocess coordinator uses. It is the reference implementation the
// conformance tests compare fleets against: any worker count must reproduce
// its report byte for byte.
func RunSerial(spec *Spec, opts SerialOptions) (*Report, error) {
	plan, agg, cp, err := prepare(spec, opts.Checkpoint, opts.Progress)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		defer cp.Close()
	}
	specs := plan.Specs()
	var line Line
	for shard := 0; shard < agg.shards; shard++ {
		if agg.Restored(shard) {
			continue
		}
		lo, hi := suite.ShardRange(len(specs), spec.ShardSize, shard)
		for _, s := range specs[lo:hi] {
			line, err = opts.Run(spec.Config, s)
			if err != nil {
				return nil, fmt.Errorf("fleet: shard %d: %s: %w", shard, s, err)
			}
			if line.Index != s.Index {
				return nil, fmt.Errorf("fleet: shard %d: run returned index %d for spec %d", shard, line.Index, s.Index)
			}
			raw, err := line.Encode()
			if err != nil {
				return nil, fmt.Errorf("fleet: shard %d: encode line %d: %w", shard, s.Index, err)
			}
			if err := agg.Observe(shard, raw, &line); err != nil {
				return nil, err
			}
		}
		p, err := agg.FinishShard(shard, -1, "")
		if err != nil {
			return nil, err
		}
		if cp != nil {
			if err := cp.Append(p); err != nil {
				return nil, err
			}
		}
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "fleet: %d/%d shards\n", agg.next, agg.shards)
		}
	}
	return agg.Report()
}
