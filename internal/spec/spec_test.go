package spec

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"agave/internal/kernel"
	"agave/internal/mem"
	"agave/internal/sim"
	"agave/internal/stats"
)

func TestNamesMatchPaper(t *testing.T) {
	want := []string{"401.bzip2", "429.mcf", "456.hmmer", "458.sjeng", "462.libquantum", "999.specrand"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("400.perlbench"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// Bzip2Compress runs bzip2Encode, the codec every bzip2 step runs on its
// lane's scratch, on fresh buffers.
func Bzip2Compress(block []byte) []byte {
	n := len(block)
	return bzip2Encode(make([]byte, 0, bzip2EncodedMax(n)), block,
		make([]byte, n), make([]int32, bwtWorkLen(n)))
}

// Bzip2Decompress inverts Bzip2Compress. The decode side runs only here:
// the simulation compresses and never decompresses.
func Bzip2Decompress(data []byte) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("spec: short bzip2 block")
	}
	idx := int(data[0]) | int(data[1])<<8 | int(data[2])<<16 | int(data[3])<<24
	mtf, err := rleDecode(data[4:])
	if err != nil {
		return nil, err
	}
	bwt := mtfDecode(mtf)
	return bwtInverse(bwt, idx)
}

func bwtInverse(l []byte, primary int) ([]byte, error) {
	n := len(l)
	if n == 0 && primary == 0 {
		return []byte{}, nil // the empty block: no rotations
	}
	if primary < 0 || primary >= n {
		return nil, fmt.Errorf("spec: bad BWT index %d", primary)
	}
	var count [256]int
	for _, c := range l {
		count[c]++
	}
	var base [256]int
	sum := 0
	for c := 0; c < 256; c++ {
		base[c] = sum
		sum += count[c]
	}
	next := make([]int, n)
	var seen [256]int
	for i, c := range l {
		next[base[c]+seen[c]] = i
		seen[c]++
	}
	out := make([]byte, n)
	p := next[primary]
	for i := 0; i < n; i++ {
		out[i] = l[p]
		p = next[p]
	}
	return out, nil
}

func mtfDecode(s []byte) []byte {
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	out := make([]byte, len(s))
	for i, j := range s {
		c := tbl[j]
		out[i] = c
		copy(tbl[1:int(j)+1], tbl[:int(j)])
		tbl[0] = c
	}
	return out
}

func rleDecode(s []byte) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("spec: odd RLE stream")
	}
	var out []byte
	for i := 0; i < len(s); i += 2 {
		for k := 0; k < int(s[i+1]); k++ {
			out = append(out, s[i])
		}
	}
	return out, nil
}

func TestBzip2Roundtrip(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("the quick brown fox jumps over the lazy dog, repeatedly: " +
			"the quick brown fox jumps over the lazy dog"),
	} {
		comp := Bzip2Compress(in)
		out, err := Bzip2Decompress(comp)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !bytes.Equal(in, out) {
			t.Fatalf("roundtrip mismatch:\n in: %q\nout: %q", in, out)
		}
	}
}

func TestBzip2CompressesRepetitiveInput(t *testing.T) {
	in := bytes.Repeat([]byte("abab"), 256)
	comp := Bzip2Compress(in)
	if len(comp) >= len(in) {
		t.Fatalf("repetitive input grew: %d -> %d", len(in), len(comp))
	}
}

func TestBzip2RoundtripProperty(t *testing.T) {
	f := func(data []byte) bool {
		if len(data) > 512 {
			return true // bound cost
		}
		out, err := Bzip2Decompress(Bzip2Compress(data))
		return err == nil && bytes.Equal(data, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// bwtReference is the rotation sort bwtForward must reproduce: a comparison
// sort of the cyclic rotations, identical rotations ordered by index.
func bwtReference(s []byte) ([]byte, int) {
	n := len(s)
	rot := make([]int, n)
	for i := range rot {
		rot[i] = i
	}
	sort.Slice(rot, func(a, b int) bool {
		ra, rb := rot[a], rot[b]
		for k := 0; k < n; k++ {
			ca, cb := s[(ra+k)%n], s[(rb+k)%n]
			if ca != cb {
				return ca < cb
			}
		}
		return ra < rb
	})
	out := make([]byte, n)
	primary := 0
	for i, r := range rot {
		out[i] = s[(r+n-1)%n]
		if r == 0 {
			primary = i
		}
	}
	return out, primary
}

// bwtMatchesReference reports whether bwtForward agrees with bwtReference on
// s, in output and primary index. A round trip cannot show this: any of
// several identical rotations decodes to the same text, so a wrong tie
// order round-trips fine.
func bwtMatchesReference(t *testing.T, s []byte) bool {
	t.Helper()
	got := make([]byte, len(s))
	gotIdx := bwtForward(got, s, make([]int32, bwtWorkLen(len(s))))
	want, wantIdx := bwtReference(s)
	if !bytes.Equal(got, want) || gotIdx != wantIdx {
		t.Errorf("bwtForward(%.40q, %d bytes): primary %d, want %d; output matches: %t",
			s, len(s), gotIdx, wantIdx, bytes.Equal(got, want))
		return false
	}
	return true
}

func TestBWTMatchesReference(t *testing.T) {
	t.Run("step-blocks", func(t *testing.T) {
		buf := make([]byte, bzip2BlockSize)
		for iter := uint64(0); iter < 256; iter++ {
			fillBzip2Block(buf, iter)
			if !bwtMatchesReference(t, buf) {
				t.Fatalf("block of iter %d", iter)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		// Folding the bytes onto 1-4 letters makes shared prefixes and
		// periodic blocks common, so deep doubling rounds run too.
		f := func(data []byte, letters uint8) bool {
			s := make([]byte, len(data))
			for i, c := range data {
				s[i] = 'a' + c%(letters%4+1)
			}
			return bwtMatchesReference(t, data) && bwtMatchesReference(t, s)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("periodic", func(t *testing.T) {
		for _, s := range []string{
			"", "a", "aaaa", strings.Repeat("abab", 256), "abcabc",
		} {
			bwtMatchesReference(t, []byte(s))
		}
	})
}

func TestBzip2DecompressRejectsGarbage(t *testing.T) {
	if _, err := Bzip2Decompress([]byte{1, 2}); err == nil {
		t.Fatal("short block accepted")
	}
	if _, err := Bzip2Decompress([]byte{200, 0, 0, 0, 5, 1, 6}); err == nil {
		t.Fatal("odd RLE stream with bad index accepted")
	}
}

func runSpec(t *testing.T, name string, d sim.Ticks) (*kernel.Kernel, *Env) {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 2})
	t.Cleanup(k.Shutdown)
	env := Launch(k, b)
	k.Run(d)
	return k, env
}

func TestSpecLayoutIsSimple(t *testing.T) {
	k, _ := runSpec(t, "401.bzip2", 500*sim.Millisecond)
	// The defining SPEC property in the paper: nearly all instruction
	// reads from the app binary, data in heap/anonymous/stack.
	bi := stats.NewBreakdown(k.Stats.ByRegion(stats.IFetch))
	if bi.Rows[0].Name != mem.RegionAppBinary || bi.Rows[0].Share < 0.9 {
		t.Fatalf("top instr region = %+v, want app binary > 90%%", bi.Rows[0])
	}
	if got := k.Stats.RegionCount(stats.IFetch); got > 4 {
		t.Fatalf("SPEC uses %d code regions, want <= 4", got)
	}
	if got := k.Stats.RegionCount(stats.DataKinds...); got > 8 {
		t.Fatalf("SPEC uses %d data regions, want <= 8", got)
	}
}

func TestSpecDrivesAta(t *testing.T) {
	k, _ := runSpec(t, "429.mcf", 400*sim.Millisecond)
	if k.Stats.ByProcess()["ata_sff/0"] == 0 {
		t.Fatal("input read did not drive ata_sff/0")
	}
	if k.Disk.BytesRead == 0 {
		t.Fatal("no disk traffic")
	}
}

// specGolden pins what each kernel computes and what it attributes: the
// checksum and the stats fingerprint of runSpec at seed 2 over 350 simulated
// ms. A kernel's host algorithm may change; these results may not.
var specGolden = []struct {
	name        string
	checksum    uint64
	fingerprint uint64
}{
	{"401.bzip2", 155220, 0x42a8ec7419d0a5e9},
	{"429.mcf", 302172, 0x3f68027778ec0271},
	{"456.hmmer", 571082, 0x53c882286323da69},
	{"458.sjeng", 23056, 0x9d9bea5590656f0},
	{"462.libquantum", 38384696350, 0xfdaee3210d59a2d6},
	{"999.specrand", 17652162396281690405, 0x3f9b4072e856ca2e},
}

func TestSpecGoldenResults(t *testing.T) {
	if len(specGolden) != len(Names()) {
		t.Fatalf("golden table has %d rows for %d benchmarks", len(specGolden), len(Names()))
	}
	for i, g := range specGolden {
		if g.name != Names()[i] {
			t.Fatalf("golden row %d is %s, want %s", i, g.name, Names()[i])
		}
	}
	checkGolden(t, "")
}

// checkGolden runs every benchmark of the specGolden table and requires its
// pinned checksum and fingerprint; at labels the failures.
func checkGolden(t *testing.T, at string) {
	t.Helper()
	for _, g := range specGolden {
		k, env := runSpec(t, g.name, 350*sim.Millisecond)
		if env.Checksum != g.checksum {
			t.Errorf("%s%s: checksum %d, want %d", g.name, at, env.Checksum, g.checksum)
		}
		if fp := k.Stats.Fingerprint(); fp != g.fingerprint {
			t.Errorf("%s%s: stats fingerprint %#x, want %#x", g.name, at, fp, g.fingerprint)
		}
	}
}

// laneKernels are the kernels whose steps run on lookahead lanes.
var laneKernels = []string{"401.bzip2", "429.mcf", "456.hmmer", "462.libquantum"}

// TestSpecResultsIndependentOfLanes requires the golden table at GOMAXPROCS
// 1 (no helper lane), 2 and 5.
func TestSpecResultsIndependentOfLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 5} {
		runtime.GOMAXPROCS(procs)
		checkGolden(t, fmt.Sprintf(" at GOMAXPROCS %d", procs))
	}
}

// TestSpecLanesExitAtShutdown checks that Shutdown ends every helper lane.
// The warm-up run at GOMAXPROCS 1 starts no lane but fills the cpu context
// pool, whose parked coroutines outlive kernels and count as goroutines.
// Shutdown waits for the lanes, so a lane that missed the stop would hang
// it: the test shuts down on another goroutine to bound that wait.
func TestSpecLanesExitAtShutdown(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(b *Benchmark, procs int) *kernel.Kernel {
		runtime.GOMAXPROCS(procs)
		k := kernel.New(kernel.Config{Quantum: sim.Millisecond, Seed: 2})
		Launch(k, b)
		k.Run(350 * sim.Millisecond)
		return k
	}
	for _, name := range laneKernels {
		b, _ := ByName(name)
		run(b, 1).Shutdown()
		before := runtime.NumGoroutine()
		k := run(b, 4)
		if n := runtime.NumGoroutine(); n < before+3 {
			t.Fatalf("%s: %d goroutines during the run, want at least %d (3 helper lanes)", name, n, before+3)
		}
		shut := make(chan struct{})
		go func() {
			k.Shutdown()
			close(shut)
		}()
		deadline := time.After(10 * time.Second)
		select {
		case <-shut:
		case <-deadline:
			t.Fatalf("%s: Shutdown still waiting for its lanes after 10 s", name)
		}
		// A goroutine past its last statement may still count for a moment.
		for runtime.NumGoroutine() > before {
			select {
			case <-deadline:
				t.Fatalf("%s: %d goroutines 10 s after the run, %d before it", name, runtime.NumGoroutine(), before)
			case <-time.After(time.Millisecond):
			}
		}
	}
}

// TestSpecTermsAllocateNothing runs each lane kernel's term on a helper
// lane: once its lanes are built, a step allocates nothing.
func TestSpecTermsAllocateNothing(t *testing.T) {
	for _, name := range laneKernels {
		b, _ := ByName(name)
		term := b.terms(2)
		iter := uint64(0)
		if a := testing.AllocsPerRun(20, func() { term(1, iter); iter++ }); a != 0 {
			t.Errorf("%s: term allocates %.1f times per step", name, a)
		}
	}
}

func TestSpecChecksumsDeterministic(t *testing.T) {
	for _, name := range Names() {
		_, e1 := runSpec(t, name, 350*sim.Millisecond)
		_, e2 := runSpec(t, name, 350*sim.Millisecond)
		if e1.Checksum != e2.Checksum {
			t.Errorf("%s: checksums diverged: %d vs %d", name, e1.Checksum, e2.Checksum)
		}
		if e1.Checksum == 0 {
			t.Errorf("%s: zero checksum (kernel did no work?)", name)
		}
	}
}

func TestMCFAnonymousDominates(t *testing.T) {
	k, _ := runSpec(t, "429.mcf", 400*sim.Millisecond)
	bd := stats.NewBreakdown(k.Stats.ByRegion(stats.DataKinds...))
	if bd.Rows[0].Name != mem.RegionAnonymous {
		t.Fatalf("mcf top data region = %s, want anonymous (big malloc over MMAP_THRESHOLD)", bd.Rows[0].Name)
	}
}

func TestHmmerHeapDominates(t *testing.T) {
	k, _ := runSpec(t, "456.hmmer", 300*sim.Millisecond)
	bd := stats.NewBreakdown(k.Stats.ByRegion(stats.DataKinds...))
	if bd.Rows[0].Name != mem.RegionHeap {
		t.Fatalf("hmmer top data region = %s, want heap", bd.Rows[0].Name)
	}
}

func TestSpecrandStackOnly(t *testing.T) {
	k, _ := runSpec(t, "999.specrand", 150*sim.Millisecond)
	bd := stats.NewBreakdown(k.Stats.ByRegion(stats.DataKinds...))
	if bd.Rows[0].Name != mem.RegionStack {
		t.Fatalf("specrand top data region = %s, want stack", bd.Rows[0].Name)
	}
}

func TestSjengSearchIsCorrect(t *testing.T) {
	// The take-away game with piles summing to a multiple-of-4 total per
	// pile is known lost for the side to move at depth covering the
	// tree; sanity-check stability rather than game theory: same
	// position, same value.
	var p1, p2 uint64
	t1, t2 := &sjengTT{}, &sjengTT{}
	v1 := t1.search([4]int8{3, 4, 2, 5}, 6, -1<<30, 1<<30, &p1)
	v2 := t2.search([4]int8{3, 4, 2, 5}, 6, -1<<30, 1<<30, &p2)
	if v1 != v2 {
		t.Fatalf("search unstable: %d vs %d", v1, v2)
	}
	if p1 == 0 {
		t.Fatal("no TT probes")
	}
}

func TestQuantumNormPreserved(t *testing.T) {
	// A Hadamard and a CNOT preserve the norm, (1<<14)² for the basis
	// state. In Q15 the two nonzero amplitudes, (1<<14)/√2 ≈ 11585.24 each,
	// come out short by under one unit (the multiply truncates, and 23170 is
	// 1/√2 rounded down), so the norm falls by less than 4·11585.24 and
	// never grows.
	b, _ := ByName("462.libquantum")
	term := b.terms(1)
	const norm, slack = 1 << 28, 46341
	for iter := uint64(0); iter < quantumQubits; iter++ {
		if got := term(0, iter); got > norm || norm-got >= slack {
			t.Errorf("target %d: norm %d, want within %d below %d", iter, got, slack, norm)
		}
	}
}
