// Package spec models the six SPEC CPU2006 benchmarks the paper uses as its
// contrast set: 401.bzip2, 429.mcf, 456.hmmer, 458.sjeng, 462.libquantum and
// 999.specrand. Each is a genuine miniature of the real benchmark's
// algorithm (block compression, min-cost flow, Viterbi DP, alpha-beta
// search, quantum register simulation, LCG) running in the classic C/Linux
// memory layout: one process named "benchmark", instruction fetches from the
// app binary, data in heap/anonymous/stack — the "simple" profile the
// paper's figures contrast against Android's.
package spec

import (
	"fmt"

	"agave/internal/kernel"
	"agave/internal/mem"
)

// Benchmark is one SPEC workload model.
type Benchmark struct {
	Name string
	// TextSize approximates the binary's text footprint.
	TextSize uint64
	// InputBytes is read from storage at startup (driving ata_sff/0).
	InputBytes uint64
	// AnonBytes is the large working set allocated above MMAP_THRESHOLD
	// (the "anonymous" region of the paper's Figure 2).
	AnonBytes uint64
	// Step runs one unit of work; the main loop repeats it until the
	// simulation deadline.
	Step func(ex *kernel.Exec, env *Env)
}

// Env is the memory environment a SPEC kernel runs in.
type Env struct {
	Proc *kernel.Process
	Anon *mem.VMA // large mmapped working set (nil if AnonBytes == 0)
	iter uint64
	// Checksum accumulates each step's result so computations cannot be
	// dead-code eliminated and tests can assert determinism.
	Checksum uint64

	// per-benchmark persistent state (built on first step)
	mcf   *mcfGraph
	sjeng *sjengTT
}

// Names lists the suite in the paper's order.
func Names() []string {
	return []string{
		"401.bzip2", "429.mcf", "456.hmmer",
		"458.sjeng", "462.libquantum", "999.specrand",
	}
}

// ByName returns the model for one benchmark.
func ByName(name string) (*Benchmark, error) {
	switch name {
	case "401.bzip2":
		return &Benchmark{Name: name, TextSize: 256 * 1024, InputBytes: 4 << 20,
			AnonBytes: 8 << 20, Step: stepBzip2}, nil
	case "429.mcf":
		return &Benchmark{Name: name, TextSize: 64 * 1024, InputBytes: 2 << 20,
			AnonBytes: 24 << 20, Step: stepMCF}, nil
	case "456.hmmer":
		return &Benchmark{Name: name, TextSize: 320 * 1024, InputBytes: 1 << 20,
			AnonBytes: 0, Step: stepHmmer}, nil
	case "458.sjeng":
		return &Benchmark{Name: name, TextSize: 192 * 1024, InputBytes: 64 * 1024,
			AnonBytes: 12 << 20, Step: stepSjeng}, nil
	case "462.libquantum":
		return &Benchmark{Name: name, TextSize: 48 * 1024, InputBytes: 16 * 1024,
			AnonBytes: 16 << 20, Step: stepQuantum}, nil
	case "999.specrand":
		return &Benchmark{Name: name, TextSize: 16 * 1024, InputBytes: 4 * 1024,
			AnonBytes: 0, Step: stepSpecrand}, nil
	}
	return nil, fmt.Errorf("spec: unknown benchmark %q", name)
}

// Launch creates the benchmark process (named "benchmark", as in the
// paper's process legends) and starts its main thread: read the input from
// storage, then iterate Step until the simulation deadline. It returns the
// environment so tests can inspect the checksum.
func Launch(k *kernel.Kernel, b *Benchmark) *Env {
	p := k.NewProcess("benchmark", b.TextSize, 4<<20)
	env := &Env{Proc: p}
	if b.AnonBytes > 0 {
		env.Anon = p.Layout.MapAnon(p.AS, b.AnonBytes)
	}
	k.SpawnThread(p, b.Name, "main", func(ex *kernel.Exec) {
		ex.PushCode(p.Layout.Text)
		// Startup: read the input set (drives the ata_sff/0 process the
		// paper observes competing with SPEC).
		in := p.Layout.Heap
		remaining := b.InputBytes
		for remaining > 0 {
			chunk := min(remaining, uint64(1<<20))
			ex.BlockRead(in, chunk)
			remaining -= chunk
		}
		for {
			b.Step(ex, env)
			env.iter++
		}
	})
	return env
}

// --- 401.bzip2: block compression (BWT + MTF + RLE) ---

// Bzip2Block compresses a block with a real Burrows–Wheeler transform,
// move-to-front coding and run-length encoding; Decompress inverts it. The
// simulation runs these for real on small blocks, and tests assert the
// round trip.
func Bzip2Compress(block []byte) []byte {
	bwt, idx := bwtForward(block)
	mtf := mtfEncode(bwt)
	out := rleEncode(mtf)
	hdr := []byte{byte(idx), byte(idx >> 8), byte(idx >> 16), byte(idx >> 24)}
	return append(hdr, out...)
}

// Bzip2Decompress inverts Bzip2Compress.
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

// bwtForward returns the last column of the block's sorted cyclic rotations
// and the row of rotation 0. It sorts the rotations by prefix doubling: once
// class ranks every rotation by its first h bytes, one stable counting sort
// by (class[r], class[r+h]) pairs orders them by their first 2h bytes.
// Rotations still sharing a class after n bytes are identical (a periodic
// block); they come out by index ascending.
func bwtForward(s []byte) ([]byte, int) {
	n := len(s)
	out := make([]byte, n)
	if n == 0 {
		return out, 0
	}
	order := make([]int32, n) // rotations sorted by class
	shifted := make([]int32, n)
	class := make([]int32, n)
	nextClass := make([]int32, n)
	count := make([]int32, max(n, 256))

	for i, c := range s {
		shifted[i] = int32(i)
		class[i] = int32(c)
	}
	sortRotations(order, shifted, class, count[:256])
	classes := rankRotations(nextClass, order, class, 0)
	class, nextClass = nextClass, class
	for h := int32(1); int(h) < n && int(classes) < n; h <<= 1 {
		// order is sorted by the first h bytes, so stepping each
		// rotation back by h lists the rotations by their second
		// half; a stable sort by first-half class completes the order.
		for i, r := range order {
			if r -= h; r < 0 {
				r += int32(n)
			}
			shifted[i] = r
		}
		sortRotations(order, shifted, class, count[:classes])
		classes = rankRotations(nextClass, order, class, h)
		class, nextClass = nextClass, class
	}
	if int(classes) < n {
		// Identical rotations share a class: order them by index.
		for i := range shifted {
			shifted[i] = int32(i)
		}
		sortRotations(order, shifted, class, count[:classes])
	}

	primary := 0
	for i, r := range order {
		if r == 0 {
			primary = i
			r = int32(n)
		}
		out[i] = s[r-1]
	}
	return out, primary
}

// sortRotations stably counting-sorts the rotations listed in src by class
// into dst. Every class is below len(count).
func sortRotations(dst, src, class, count []int32) {
	clear(count)
	for _, r := range src {
		count[class[r]]++
	}
	for c := 1; c < len(count); c++ {
		count[c] += count[c-1]
	}
	for i := len(src) - 1; i >= 0; i-- {
		r := src[i]
		count[class[r]]--
		dst[count[class[r]]] = r
	}
}

// rankRotations numbers the runs of equal (class[r], class[r+h]) pairs along
// order, which is sorted by those pairs, into rank, and returns the number of
// runs.
func rankRotations(rank, order, class []int32, h int32) int32 {
	n := int32(len(order))
	second := func(r int32) int32 {
		if r += h; r >= n {
			r -= n
		}
		return class[r]
	}
	runs := int32(1)
	rank[order[0]] = 0
	for i := 1; i < len(order); i++ {
		cur, prev := order[i], order[i-1]
		if class[cur] != class[prev] || second(cur) != second(prev) {
			runs++
		}
		rank[cur] = runs - 1
	}
	return runs
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

func mtfEncode(s []byte) []byte {
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	out := make([]byte, len(s))
	for i, c := range s {
		var j int
		for j = 0; tbl[j] != c; j++ {
		}
		out[i] = byte(j)
		copy(tbl[1:j+1], tbl[:j])
		tbl[0] = c
	}
	return out
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

func rleEncode(s []byte) []byte {
	var out []byte
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] && j-i < 255 {
			j++
		}
		out = append(out, s[i], byte(j-i))
		i = j
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

// bzip2BlockSize is the size of the block each bzip2 step compresses for real.
const bzip2BlockSize = 2048

// fillBzip2Block writes step iter's synthetic text block into buf.
func fillBzip2Block(buf []byte, iter uint64) {
	seed := iter*2654435761 + 12345
	for i := range buf {
		seed = seed*1103515245 + 12345
		buf[i] = "the quick brown fox jumps over "[seed%31]
	}
}

// stepBzip2 compresses one synthetic text block for real and accounts the
// full-scale block volume.
func stepBzip2(ex *kernel.Exec, env *Env) {
	buf := env.Anon.Slice(0, bzip2BlockSize)
	fillBzip2Block(buf, env.iter)
	comp := Bzip2Compress(buf)
	env.Checksum += uint64(len(comp))
	// Account the full 256 KiB-block workload this miniature stands for:
	// suffix sort reads, MTF table traffic, output writes.
	heap := env.Proc.Layout.Heap
	ex.Do(kernel.Work{Fetch: 10, Reads: 2, Data: env.Anon}, 300_000)
	ex.Do(kernel.Work{Fetch: 4, Reads: 1, Writes: 1, Data: heap}, 120_000)
	ex.StackWork(40_000)
}
