package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// checkpointFormat names the journal wire format; bump on incompatible
// changes so stale journals fail loudly instead of misparsing.
const checkpointFormat = "agave-fleet-checkpoint/1"

// Header is the checkpoint journal's first line: it pins the job identity
// (plan_hash) and shard geometry (runs, shards, shard_size) so a journal
// can never resume a different plan or a re-sharded one.
type Header struct {
	Format    string `json:"format"`
	PlanHash  string `json:"plan_hash"`
	Runs      int    `json:"runs"`
	Shards    int    `json:"shards"`
	ShardSize int    `json:"shard_size"`
}

// Checkpoint is an open journal: one header line followed by one
// ShardResult record per completed shard, each appended and fsynced as the
// shard seals, so a SIGKILL loses at most the in-flight shards.
type Checkpoint struct {
	path string
	f    *os.File
}

// CreateCheckpoint starts a fresh journal at path, truncating any previous
// file, and writes the header.
func CreateCheckpoint(path string, h Header) (*Checkpoint, error) {
	h.Format = checkpointFormat
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	c := &Checkpoint{path: path, f: f}
	if err := c.appendJSON(h); err != nil {
		f.Close()
		return nil, err
	}
	return c, nil
}

// OpenCheckpoint resumes the journal at path: it validates the header
// against want (Format is filled in here), parses every completed-shard
// record, and reopens the file for appending. A torn final line — one with
// no trailing newline, the signature of a SIGKILL mid-append — is dropped
// silently; that shard simply reruns. Any other unparsable content is a
// hard error: the journal is corrupt and resuming it would silently skip
// work.
func OpenCheckpoint(path string, want Header) ([]*ShardResult, *Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	want.Format = checkpointFormat
	lines := bytes.Split(data, []byte("\n"))
	// A well-formed journal ends with a newline, leaving one empty
	// trailing element; anything else on the last element is a torn write.
	torn := len(lines) > 0 && len(lines[len(lines)-1]) > 0
	if torn {
		lines = lines[:len(lines)-1]
	} else if len(lines) > 0 {
		lines = lines[:len(lines)-1] // drop the empty element after the final newline
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("checkpoint %s: corrupt header: empty file", path)
	}
	var h Header
	if err := json.Unmarshal(lines[0], &h); err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: corrupt header: %v", path, err)
	}
	if h.Format != want.Format {
		return nil, nil, fmt.Errorf("checkpoint %s: unknown format %q (want %q)", path, h.Format, want.Format)
	}
	if h.PlanHash != want.PlanHash {
		return nil, nil, fmt.Errorf("checkpoint %s: stale plan hash %s (current plan is %s); the checkpoint belongs to a different plan — delete it or rerun that plan", path, h.PlanHash, want.PlanHash)
	}
	if h.Runs != want.Runs || h.Shards != want.Shards || h.ShardSize != want.ShardSize {
		return nil, nil, fmt.Errorf("checkpoint %s: shard geometry mismatch: journal has %d runs in %d shards of %d, plan has %d runs in %d shards of %d", path, h.Runs, h.Shards, h.ShardSize, want.Runs, want.Shards, want.ShardSize)
	}
	var partials []*ShardResult
	seen := make(map[int]bool)
	for i, line := range lines[1:] {
		p := new(ShardResult)
		if err := json.Unmarshal(line, p); err != nil {
			return nil, nil, fmt.Errorf("checkpoint %s: corrupt record at line %d: %v", path, i+2, err)
		}
		if p.Shard < 0 || p.Shard >= h.Shards {
			return nil, nil, fmt.Errorf("checkpoint %s: corrupt record at line %d: shard %d out of range", path, i+2, p.Shard)
		}
		if seen[p.Shard] {
			return nil, nil, fmt.Errorf("checkpoint %s: corrupt record at line %d: shard %d recorded twice", path, i+2, p.Shard)
		}
		for _, c := range p.Cells {
			if c == nil {
				return nil, nil, fmt.Errorf("checkpoint %s: corrupt record at line %d: null cell", path, i+2)
			}
		}
		seen[p.Shard] = true
		partials = append(partials, p)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
	}
	if torn {
		// Truncate the torn tail so the next append starts on a clean
		// line boundary.
		keep := int64(bytes.LastIndexByte(data, '\n') + 1)
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("checkpoint %s: %w", path, err)
		}
	}
	return partials, &Checkpoint{path: path, f: f}, nil
}

// Append journals one completed shard and syncs it to disk.
func (c *Checkpoint) Append(p *ShardResult) error {
	return c.appendJSON(p)
}

func (c *Checkpoint) appendJSON(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	if _, err := c.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("checkpoint %s: %w", c.path, err)
	}
	return nil
}

// Close closes the journal file.
func (c *Checkpoint) Close() error { return c.f.Close() }
