// Package spec models the six SPEC CPU2006 benchmarks the paper uses as its
// contrast set: 401.bzip2, 429.mcf, 456.hmmer, 458.sjeng, 462.libquantum and
// 999.specrand. Each is a genuine miniature of the real benchmark's
// algorithm (block compression, min-cost flow, Viterbi DP, alpha-beta
// search, quantum register simulation, LCG) running in the classic C/Linux
// memory layout: one process named "benchmark", instruction fetches from the
// app binary, data in heap/anonymous/stack — the "simple" profile the
// paper's figures contrast against Android's.
//
// The miniatures of bzip2, mcf, hmmer and libquantum depend on nothing but
// their step number and the run's immutable inputs, so their steps are
// computed ahead of the simulated thread on lookahead lanes, one per
// GOMAXPROCS, and folded in step order (see lanes). Results do not depend on
// the lane count.
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
	// simulation deadline. It charges the unit's simulated references. For
	// sjeng and specrand, whose units depend on earlier ones, it also
	// computes the unit and folds its result into Env.Checksum.
	Step func(ex *kernel.Exec, env *Env)
	// terms is set for the kernels whose units depend only on their step
	// number and the run's immutable inputs. Given a lane count n, it
	// builds those inputs and the scratch of n lanes, and returns the
	// unit's computation: step iter's checksum term, on the given lane's
	// scratch. Launch folds each term into Env.Checksum before Step
	// charges the unit.
	terms func(n int) func(lane int, iter uint64) uint64
}

// Env is the memory environment a SPEC kernel runs in.
type Env struct {
	Proc *kernel.Process
	Anon *mem.VMA // large mmapped working set (nil if AnonBytes == 0)
	iter uint64
	// Checksum accumulates each step's result so computations cannot be
	// dead-code eliminated and tests can assert determinism.
	Checksum uint64

	// sjeng's transposition table, kept across steps (built on first step)
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
			AnonBytes: 8 << 20, Step: chargeBzip2, terms: bzip2Terms}, nil
	case "429.mcf":
		return &Benchmark{Name: name, TextSize: 64 * 1024, InputBytes: 2 << 20,
			AnonBytes: 24 << 20, Step: chargeMCF, terms: mcfTerms}, nil
	case "456.hmmer":
		return &Benchmark{Name: name, TextSize: 320 * 1024, InputBytes: 1 << 20,
			AnonBytes: 0, Step: chargeHmmer, terms: hmmerTerms}, nil
	case "458.sjeng":
		return &Benchmark{Name: name, TextSize: 192 * 1024, InputBytes: 64 * 1024,
			AnonBytes: 12 << 20, Step: stepSjeng}, nil
	case "462.libquantum":
		return &Benchmark{Name: name, TextSize: 48 * 1024, InputBytes: 16 * 1024,
			AnonBytes: 16 << 20, Step: chargeQuantum, terms: quantumTerms}, nil
	case "999.specrand":
		return &Benchmark{Name: name, TextSize: 16 * 1024, InputBytes: 4 * 1024,
			AnonBytes: 0, Step: stepSpecrand}, nil
	}
	return nil, fmt.Errorf("spec: unknown benchmark %q", name)
}

// Launch creates the benchmark process (named "benchmark", as in the
// paper's process legends) and starts its main thread: read the input from
// storage, then iterate Step until the simulation deadline. A lane kernel
// starts its lanes at the first step and folds each step's term before
// Step charges it; the lanes stop when the thread is killed (Shutdown). It
// returns the environment so tests can inspect the checksum.
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
		if b.terms == nil {
			for {
				b.Step(ex, env)
				env.iter++
			}
		}
		ls := startLanes(b.terms)
		defer ls.stop()
		for {
			env.Checksum += ls.next(env.iter)
			b.Step(ex, env)
			env.iter++
		}
	})
	return env
}

// --- 401.bzip2: block compression (BWT + MTF + RLE) ---

// bzip2Encode compresses a block with a real Burrows–Wheeler transform,
// move-to-front coding and run-length encoding, appending to dst the BWT's
// primary index in 4 little-endian bytes, then the RLE of the MTF of the
// BWT. last (len block bytes) and work (bwtWorkLen(len(block)) entries) are
// scratch. With bzip2EncodedMax(len(block)) bytes free in dst it allocates
// nothing.
func bzip2Encode(dst, block, last []byte, work []int32) []byte {
	idx := bwtForward(last, block, work)
	mtfEncode(last)
	dst = append(dst, byte(idx), byte(idx>>8), byte(idx>>16), byte(idx>>24))
	return rleEncode(dst, last)
}

// bzip2EncodedMax bounds bzip2Encode's output for an n-byte block: the index,
// then at worst a (byte, run) pair per byte.
func bzip2EncodedMax(n int) int { return 4 + 2*n }

// bwtWorkLen is the scratch bwtForward needs for an n-byte block: four
// arrays of n rotations plus a counting-sort histogram of at least the 256
// byte classes.
func bwtWorkLen(n int) int { return 4*n + max(n, 256) }

// bwtForward writes the last column of the block's sorted cyclic rotations
// into out (len(s) bytes) and returns the row of rotation 0. work is scratch
// of bwtWorkLen(len(s)) entries. It sorts the rotations by prefix doubling:
// once class ranks every rotation by its first h bytes, one stable counting
// sort by (class[r], class[r+h]) pairs orders them by their first 2h bytes.
// Rotations still sharing a class after n bytes are identical (a periodic
// block); they come out by index ascending.
func bwtForward(out, s []byte, work []int32) int {
	n := len(s)
	if n == 0 {
		return 0
	}
	order := work[:n] // rotations sorted by class
	shifted := work[n : 2*n]
	class := work[2*n : 3*n]
	nextClass := work[3*n : 4*n]
	count := work[4*n : bwtWorkLen(n)]

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
	return primary
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

// mtfEncode move-to-front codes s in place: each byte becomes its position
// in a recency list of all 256 byte values.
func mtfEncode(s []byte) {
	var tbl [256]byte
	for i := range tbl {
		tbl[i] = byte(i)
	}
	for i, c := range s {
		var j int
		for j = 0; tbl[j] != c; j++ {
		}
		s[i] = byte(j)
		copy(tbl[1:j+1], tbl[:j])
		tbl[0] = c
	}
}

// rleEncode appends s to dst as (byte, run length) pairs, runs capped at 255.
func rleEncode(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		j := i
		for j < len(s) && s[j] == s[i] && j-i < 255 {
			j++
		}
		dst = append(dst, s[i], byte(j-i))
		i = j
	}
	return dst
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

// bzip2Lane is one lane's scratch for a bzip2 step: the block, its BWT
// (MTF-coded in place), the compressed output and the BWT's work arrays.
type bzip2Lane struct {
	block, last [bzip2BlockSize]byte
	out         [4 + 2*bzip2BlockSize]byte // bzip2EncodedMax(bzip2BlockSize)
	work        [4*bzip2BlockSize + max(bzip2BlockSize, 256)]int32
}

// bzip2Terms gives each step's term: the compressed size of its synthetic
// text block.
func bzip2Terms(n int) func(lane int, iter uint64) uint64 {
	scratch := make([]bzip2Lane, n)
	return func(lane int, iter uint64) uint64 {
		l := &scratch[lane]
		fillBzip2Block(l.block[:], iter)
		return uint64(len(bzip2Encode(l.out[:0], l.block[:], l.last[:], l.work[:])))
	}
}

// chargeBzip2 accounts the full 256 KiB-block workload a bzip2 step's
// miniature stands for: suffix sort reads, MTF table traffic, output writes.
func chargeBzip2(ex *kernel.Exec, env *Env) {
	heap := env.Proc.Layout.Heap
	ex.Do(kernel.Work{Fetch: 10, Reads: 2, Data: env.Anon}, 300_000)
	ex.Do(kernel.Work{Fetch: 4, Reads: 1, Writes: 1, Data: heap}, 120_000)
	ex.StackWork(40_000)
}
