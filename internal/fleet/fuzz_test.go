package fleet

import (
	"bytes"
	"encoding/json"
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

// FuzzRunWorker feeds arbitrary stdin bytes to RunWorker with the synthetic
// engine. Bytes that decode as a Spec are also wrapped in an envelope with
// their true hash and the fuzzed shard id, so mutations reach past the hash
// check into plan decoding and shard slicing. Every input must come back as
// an error or as a clean stream: result lines, then a trailer that counts
// and digests them.
func FuzzRunWorker(f *testing.F) {
	spec := testSpec(f, 5)
	hash, err := spec.Hash()
	if err != nil {
		f.Fatal(err)
	}
	env, err := json.Marshal(Envelope{PlanHash: hash, Shard: 1, Spec: *spec})
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(env, 0)
	f.Add(raw, 4)
	f.Add(raw, -1)
	f.Add([]byte(`{"config":null,"plan":{"seeds":[1,2]},"shard_size":0}`), 0)
	f.Fuzz(func(t *testing.T, data []byte, shard int) {
		stdins := [][]byte{data}
		var s Spec
		if json.Unmarshal(data, &s) == nil {
			if hash, err := s.Hash(); err == nil {
				if env, err := json.Marshal(Envelope{PlanHash: hash, Shard: shard, Spec: s}); err == nil {
					stdins = append(stdins, env)
				}
			}
		}
		for _, stdin := range stdins {
			var out bytes.Buffer
			if RunWorker(bytes.NewReader(stdin), &out, syntheticRun) != nil {
				continue
			}
			lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
			var digest Digest
			var line Line
			for _, l := range lines[:len(lines)-1] {
				if err := DecodeLine([]byte(l), &line); err != nil {
					t.Fatalf("result line %q: %v", l, err)
				}
				digest.AddLine([]byte(l))
			}
			var tr Trailer
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
				t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
			}
			if !tr.Done || tr.Lines != len(lines)-1 || tr.Digest != digest.Hex() {
				t.Fatalf("trailer %+v does not seal its %d lines", tr, len(lines)-1)
			}
		}
	})
}
