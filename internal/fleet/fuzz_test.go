package fleet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agave/internal/suite"
)

// FuzzOpenCheckpoint resumes the size-5 test spec from arbitrary journal
// bytes through the same open-and-restore path Run and RunSerial take: a
// damaged journal must come back as an error, never a panic.
func FuzzOpenCheckpoint(f *testing.F) {
	spec := testSpec(f, 5)
	hash, err := spec.Hash()
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "fleet.ckpt")
	if _, err := RunSerial(spec, SerialOptions{Checkpoint: path, Run: syntheticRun}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(strings.Join([]string{header(hash), goodRecord, `{"shard":1,"lines":5,"dig`}, "")))
	f.Add([]byte(header(hash) + nullCellRecord))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, agg, cp, err := prepare(spec, path, nil)
		if err != nil {
			return
		}
		cp.Close()
		if agg.Done() {
			if _, err := agg.Report(); err != nil {
				t.Fatalf("complete journal yields no report: %v", err)
			}
		}
	})
}

// FuzzDecodeLine feeds arbitrary worker-output bytes through DecodeLine
// into Aggregator.Observe, as the coordinator does: bad input must come
// back as an error, never a panic, and an accepted line must be the next
// one of its shard.
func FuzzDecodeLine(f *testing.F) {
	const total, size = 23, 5
	raws, _ := syntheticLines(f, total)
	for i, raw := range raws {
		f.Add(raw, i/size)
	}
	f.Add([]byte(`{"index":0,"metrics":null}`), 0)
	f.Add([]byte(`{"index":-1,"metrics":[{"k":"v","v":1e308}]}`), -1)
	f.Fuzz(func(t *testing.T, data []byte, shard int) {
		var line Line
		if DecodeLine(data, &line) != nil {
			return
		}
		agg := NewAggregator(total, size, "h")
		if agg.Observe(shard, data, &line) != nil {
			return
		}
		if lo, _ := suite.ShardRange(total, size, shard); line.Index != lo {
			t.Fatalf("shard %d accepted index %d as its first line", shard, line.Index)
		}
		if agg.Observe(shard, data, &line) == nil {
			t.Fatal("one line was accepted twice")
		}
	})
}
