package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCheckpoint(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fleet.ckpt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func header(hash string) string {
	return fmt.Sprintf(`{"format":"agave-fleet-checkpoint/1","plan_hash":%q,"runs":24,"shards":5,"shard_size":5}`+"\n", hash)
}

func wantHeader(hash string) Header {
	return Header{PlanHash: hash, Runs: 24, Shards: 5, ShardSize: 5}
}

const goodRecord = `{"shard":0,"lines":5,"digest":"` +
	"0000000000000000000000000000000000000000000000000000000000000000" + `","cells":[]}` + "\n"

// TestCheckpointStalePlanHash pins the exact stale-hash error text: an
// operator resuming against the wrong plan must be told what happened and
// what to do.
func TestCheckpointStalePlanHash(t *testing.T) {
	path := writeCheckpoint(t, header("aaaa"))
	_, _, err := OpenCheckpoint(path, wantHeader("bbbb"))
	if err == nil {
		t.Fatal("stale plan hash accepted")
	}
	want := fmt.Sprintf("checkpoint %s: stale plan hash aaaa (current plan is bbbb); the checkpoint belongs to a different plan — delete it or rerun that plan", path)
	if err.Error() != want {
		t.Fatalf("error = %q\nwant    %q", err, want)
	}
}

// nullCellRecord parses as a record but names a null cell, which resuming
// would dereference.
const nullCellRecord = `{"shard":0,"lines":5,"digest":"` +
	"0000000000000000000000000000000000000000000000000000000000000000" + `","cells":[null]}` + "\n"

// TestCheckpointCorrupt pins the corrupt-header and corrupt-record errors.
func TestCheckpointCorrupt(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
		want  string // error prefix after "checkpoint <path>: "
	}{
		{"header", []string{"not json\n"}, "corrupt header:"},
		{"record", []string{header("h"), "garbage record\n"}, "corrupt record at line 2:"},
		{"duplicate", []string{header("h"), goodRecord, goodRecord}, "corrupt record at line 3: shard 0 recorded twice"},
		{"out of range", []string{header("h"), `{"shard":9,"lines":5,"digest":"00","cells":[]}` + "\n"},
			"corrupt record at line 2: shard 9 out of range"},
		{"null cell", []string{header("h"), nullCellRecord}, "corrupt record at line 2: null cell"},
	}
	for _, tc := range cases {
		path := writeCheckpoint(t, tc.lines...)
		_, _, err := OpenCheckpoint(path, wantHeader("h"))
		if want := fmt.Sprintf("checkpoint %s: %s", path, tc.want); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error = %v, want prefix %q", tc.name, err, want)
		}
	}
}

// TestCheckpointTornTailTolerated pins crash-safety: a final line without a
// trailing newline is the signature of a SIGKILL mid-append, so it is
// dropped (the shard reruns) rather than poisoning the journal, and the
// next append lands on a clean line boundary.
func TestCheckpointTornTailTolerated(t *testing.T) {
	path := writeCheckpoint(t, header("h"), goodRecord, `{"shard":1,"lines":5,"dig`)
	partials, cp, err := OpenCheckpoint(path, wantHeader("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Close()
	if len(partials) != 1 || partials[0].Shard != 0 {
		t.Fatalf("partials = %+v, want only shard 0", partials)
	}
	if err := cp.Append(&ShardResult{Shard: 1, Lines: 5, Digest: Digest{}.Hex()}); err != nil {
		t.Fatal(err)
	}
	// Reopen: the torn tail must be gone and the new record intact.
	partials, cp2, err := OpenCheckpoint(path, wantHeader("h"))
	if err != nil {
		t.Fatal(err)
	}
	defer cp2.Close()
	if len(partials) != 2 || partials[1].Shard != 1 {
		t.Fatalf("after truncate+append, partials = %+v", partials)
	}
}

func TestCheckpointGeometryMismatch(t *testing.T) {
	path := writeCheckpoint(t, header("h"))
	want := wantHeader("h")
	want.ShardSize = 3
	want.Shards = 8
	_, _, err := OpenCheckpoint(path, want)
	if err == nil || !strings.Contains(err.Error(), "shard geometry mismatch") {
		t.Fatalf("geometry mismatch error = %v", err)
	}
}
