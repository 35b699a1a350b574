package spec

import (
	"agave/internal/kernel"
)

// --- 429.mcf: min-cost flow (simplified network simplex) ---
//
// A genuine single-source shortest-path/negative-edge relaxation over a
// pseudo-random sparse graph: the pointer-chasing, cache-hostile access
// pattern 429.mcf is famous for. The graph lives conceptually in the huge
// anonymous mapping (mcf allocates its arc array with one giant malloc that
// glibc services with mmap — hence "anonymous", as the paper notes about
// MMAP_THRESHOLD).

const (
	mcfNodes = 4096
	mcfArcs  = 4 * mcfNodes
)

type mcfArc struct {
	to, cost int32
}

// mcfGraph stores the arcs in CSR form: arcs[off[u]:off[u+1]] are u's
// outgoing arcs, in the order mcf's linked adjacency list visits them.
type mcfGraph struct {
	off  [mcfNodes + 1]int32
	arcs [mcfArcs]mcfArc
}

func (g *mcfGraph) init(seed uint64) {
	// Build the linked adjacency list (each arc pushed onto the front of
	// its tail node's list), then lay each list out contiguously.
	first := make([]int32, mcfNodes)
	next := make([]int32, mcfArcs)
	arcs := make([]mcfArc, mcfArcs)
	for i := range first {
		first[i] = -1
	}
	for a := 0; a < mcfArcs; a++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		from := int32(seed % mcfNodes)
		seed = seed*6364136223846793005 + 1442695040888963407
		to := int32(seed % mcfNodes)
		arcs[a] = mcfArc{to: to, cost: int32(seed%97) - 16}
		next[a] = first[from]
		first[from] = int32(a)
	}
	n := int32(0)
	for u := 0; u < mcfNodes; u++ {
		g.off[u] = n
		for a := first[u]; a >= 0; a = next[a] {
			g.arcs[n] = arcs[a]
			n++
		}
	}
	g.off[mcfNodes] = n
}

// relax runs two Bellman-Ford rounds from node 0, keeping the distances in
// dist, and returns how many arcs relaxed.
func (g *mcfGraph) relax(dist *[mcfNodes]int64) int {
	for i := range dist {
		dist[i] = 1 << 40
	}
	dist[0] = 0
	relaxed := 0
	// dist[u] is reread per arc: a negative self-loop lowers it mid-list.
	for round := 0; round < 2; round++ {
		for u := 0; u < mcfNodes; u++ {
			for _, arc := range g.arcs[g.off[u]:g.off[u+1]] {
				if nd := dist[u] + int64(arc.cost); nd < dist[arc.to] {
					dist[arc.to] = nd
					relaxed++
				}
			}
		}
	}
	return relaxed
}

// mcfTerms builds the run's graph, which every lane reads and none writes,
// and gives each step's term: the relaxation count. A lane owns its dist.
func mcfTerms(n int) func(lane int, iter uint64) uint64 {
	g := &mcfGraph{}
	g.init(42)
	dist := make([][mcfNodes]int64, n)
	return func(lane int, _ uint64) uint64 { return uint64(g.relax(&dist[lane])) }
}

// chargeMCF accounts the full-size working set traversal: node/arc
// structure reads dominate, nearly all in the anonymous arena.
func chargeMCF(ex *kernel.Exec, env *Env) {
	ex.Do(kernel.Work{Fetch: 6, Reads: 3, Data: env.Anon}, 260_000)
	ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: env.Anon}, 40_000)
	ex.StackWork(8_000)
}

// --- 456.hmmer: profile HMM Viterbi DP ---

const (
	hmmStates = 128
	hmmSeqLen = 256
)

// hmmerTerms gives each step's term: the best Viterbi score of its
// synthetic sequence. The row buffers live on the lane's stack.
func hmmerTerms(int) func(lane int, iter uint64) uint64 { return hmmerTerm }

func hmmerTerm(_ int, iter uint64) uint64 {
	// Genuine Viterbi pass: match/insert/delete recurrences over two row
	// buffers that swap roles each position.
	var rowA, rowB [hmmStates]int32
	prev, cur := &rowA, &rowB
	seed := iter*2862933555777941757 + 3037000493
	for i := range prev {
		prev[i] = int32(i % 7)
	}
	var best int32
	for pos := 0; pos < hmmSeqLen; pos++ {
		seed = seed*6364136223846793005 + 1
		emit := int32(seed % 31)
		half := emit / 2
		del := prev[0] + emit // the delete state carries cur[s-1]
		cur[0] = del
		for s := 1; s < hmmStates; s++ {
			// match, insert, delete
			del = max(prev[s-1]+emit, prev[s]+half, del-3)
			cur[s] = del
		}
		prev, cur = cur, prev
		best = max(best, del)
	}
	return uint64(uint32(best))
}

// chargeHmmer accounts the DP matrix traffic of the full-scale model
// (heap-resident).
func chargeHmmer(ex *kernel.Exec, env *Env) {
	heap := env.Proc.Layout.Heap
	ex.Do(kernel.Work{Fetch: 9, Reads: 3, Writes: 1, Data: heap}, 220_000)
	ex.StackWork(30_000)
}

// --- 458.sjeng: alpha-beta game-tree search ---
//
// A real negamax search with a transposition table over a deterministic
// two-player take-away game (positions = pile states), reproducing sjeng's
// branchy, hash-probing profile.

type sjengTT struct {
	key [1 << 14]uint64
	val [1 << 14]int32
	ok  [1 << 14]bool
}

func (tt *sjengTT) search(piles [4]int8, depth int, alpha, beta int32, probes *uint64) int32 {
	if depth == 0 {
		var sum int32
		for _, p := range piles {
			sum += int32(p)
		}
		return sum & 7
	}
	var h uint64 = 14695981039346656037
	for _, p := range piles {
		h = (h ^ uint64(uint8(p))) * 1099511628211
	}
	h ^= uint64(depth)
	slot := h & (1<<14 - 1)
	*probes++
	if tt.ok[slot] && tt.key[slot] == h {
		return tt.val[slot]
	}
	best := int32(-1 << 30)
	moved := false
	for i := 0; i < 4; i++ {
		for take := int8(1); take <= 3 && take <= piles[i]; take++ {
			child := piles
			child[i] -= take
			moved = true
			v := -tt.search(child, depth-1, -beta, -alpha, probes)
			if v > best {
				best = v
			}
			if best > alpha {
				alpha = best
			}
			if alpha >= beta {
				goto done
			}
		}
	}
	if !moved {
		best = -8 // side to move has no moves: lost position
	}
done:
	tt.key[slot] = h
	tt.val[slot] = best
	tt.ok[slot] = true
	return best
}

func stepSjeng(ex *kernel.Exec, env *Env) {
	if env.sjeng == nil {
		env.sjeng = &sjengTT{}
	}
	var probes uint64
	piles := [4]int8{
		int8(3 + env.iter%5), int8(4 + env.iter%3),
		int8(2 + env.iter%7), int8(5),
	}
	v := env.sjeng.search(piles, 6, -1<<30, 1<<30, &probes)
	env.Checksum += uint64(uint32(v)) + probes
	// Full-scale accounting: hash probes against the anonymous TT,
	// move generation on the stack, evaluation compute.
	ex.Do(kernel.Work{Fetch: 8, Reads: 2, Data: env.Anon}, 180_000)
	ex.Do(kernel.Work{Fetch: 3, Writes: 1, Data: env.Anon}, 30_000)
	ex.StackWork(90_000)
}

// --- 462.libquantum: quantum register simulation ---

const quantumQubits = 12 // 4096-amplitude state vector

// quantumTerms gives each step's term: the state's norm after the step's
// gates. A lane owns its amplitude vector.
func quantumTerms(n int) func(lane int, iter uint64) uint64 {
	amps := make([][1 << quantumQubits]int32, n)
	return func(lane int, iter uint64) uint64 { return quantumTerm(&amps[lane], iter) }
}

func quantumTerm(amp *[1 << quantumQubits]int32, iter uint64) uint64 {
	n := len(amp)
	// Genuine gate applications over a real amplitude array (fixed-point).
	clear(amp[:])
	amp[0] = 1 << 14
	target := uint(iter % quantumQubits)
	bit := 1 << target
	// Hadamard on `target`: butterfly over the state vector.
	for i := 0; i < n; i++ {
		if i&bit == 0 {
			a, b := amp[i], amp[i|bit]
			amp[i] = (a + b) * 23170 >> 15 // 1/sqrt2 in Q15
			amp[i|bit] = (a - b) * 23170 >> 15
		}
	}
	// Controlled-NOT: swap amplitude pairs.
	ctrl := 1 << ((target + 1) % quantumQubits)
	for i := 0; i < n; i++ {
		if i&ctrl != 0 && i&bit == 0 {
			amp[i], amp[i|bit] = amp[i|bit], amp[i]
		}
	}
	var sum int64
	for _, a := range amp {
		sum += int64(a) * int64(a)
	}
	return uint64(sum)
}

// chargeQuantum accounts the full-scale register (libquantum uses millions
// of amplitudes in the anonymous arena): streaming read-modify-write sweeps.
func chargeQuantum(ex *kernel.Exec, env *Env) {
	ex.Do(kernel.Work{Fetch: 7, Reads: 2, Writes: 2, Data: env.Anon}, 350_000)
	ex.StackWork(5_000)
}

// --- 999.specrand: the null benchmark ---

func stepSpecrand(ex *kernel.Exec, env *Env) {
	// specrand literally draws random numbers and prints a few: almost
	// no data footprint, pure register/ALU activity.
	seed := env.Checksum*69069 + 1
	for i := 0; i < 4096; i++ {
		seed = seed*69069 + 1
	}
	env.Checksum = seed
	ex.Fetch(160_000)
	ex.StackWork(6_000)
}
