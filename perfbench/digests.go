package main

import (
	"bufio"
	_ "embed"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// digests.txt records the expected digest of every item of every workload at
// the seeds in recordSeeds, one "workload seed item digest" line each. A run
// digest is the stats fingerprint plus the census counts; a sweep digest is
// the fleet report's fingerprint. Regenerate it with -record after a change
// that deliberately moves simulated behaviour.
//
//go:embed digests.txt
var recordedDigests string

// recordSeeds are the seeds digests.txt covers: the default seed 1 and its
// neighbours, so the seeds a run is likely given are all checked against a
// recorded digest.
const recordSeeds = 32

// record maps workload -> seed -> item -> digest.
type record map[string]map[uint64]map[string]string

func loadRecord() (record, error) {
	return parseRecord(strings.NewReader(recordedDigests))
}

func parseRecord(r io.Reader) (record, error) {
	rec := record{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 4 {
			return nil, fmt.Errorf("digests.txt:%d: want \"workload seed item digest\", got %q", n, line)
		}
		seed, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("digests.txt:%d: %w", n, err)
		}
		if rec[f[0]] == nil {
			rec[f[0]] = map[uint64]map[string]string{}
		}
		if rec[f[0]][seed] == nil {
			rec[f[0]][seed] = map[string]string{}
		}
		rec[f[0]][seed][f[2]] = f[3]
	}
	return rec, sc.Err()
}

// checks holds what a workload's ops are checked against: the digests of
// its first set-up, and the recorded digests when the seed is recorded.
type checks struct {
	workload string
	ref      map[string]string
	want     map[string]string
}

func (b *bench) checksFor(workload string) checks {
	c := checks{workload: workload}
	if b.cfg.record != nil {
		c.want = b.cfg.record[workload][b.cfg.seed]
	}
	return c
}

func (c *checks) checker() *checks { return c }

// ok reports whether an op's digest matches its item's set-up digest and,
// when recorded, its recorded digest.
func (c *checks) ok(item, digest string) bool {
	return digest != "" && c.ref[item] == digest && (c.want == nil || c.want[item] == digest)
}

func (c *checks) expect(item string) string {
	if c.want != nil {
		return c.want[item] + " (recorded)"
	}
	return c.ref[item] + " (first set-up)"
}

// adopt makes the first set-up's digests the reference and reports how they
// compare with the record.
func (c *checks) adopt(digests map[string]string, log io.Writer, seed uint64) {
	c.ref = digests
	if c.want == nil {
		fmt.Fprintf(log, "perfbench: %s has no recorded digests at seed %d; ops are checked against the first set-up\n", c.workload, seed)
		return
	}
	for _, item := range sortedKeys(digests) {
		if c.want[item] != digests[item] {
			fmt.Fprintf(log, "perfbench: %s set-up: %s digest %s, recorded %q\n", c.workload, item, digests[item], c.want[item])
		}
	}
}

// writeRecord recomputes every workload's digests at each recorded seed and
// writes them to path.
func writeRecord(path string, log io.Writer) error {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(dir, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	var out strings.Builder
	out.WriteString("# perfbench expected digests: workload seed item digest (regenerate with -record)\n")
	for _, wl := range workloads {
		for seed := uint64(0); seed < recordSeeds; seed++ {
			b := newBench(config{workload: wl.name, seed: seed, sizes: fullSizes()}, scratch, log)
			digests, err := wl.build(b).setup()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			for _, item := range sortedKeys(digests) {
				fmt.Fprintf(&out, "%s %d %s %s\n", wl.name, seed, item, digests[item])
			}
			fmt.Fprintf(log, "perfbench: recorded %s seed %d\n", wl.name, seed)
		}
	}
	return os.WriteFile(path, []byte(out.String()), 0o644)
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
