package cctsa

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rtle/internal/core"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// Config parameterizes an assembly run. Zero fields select the defaults
// noted per field (matching the paper's setup where applicable: 36-bp
// reads, k = 27).
type Config struct {
	GenomeLen int     // genome length (default 20000)
	ReadLen   int     // read length (default 36)
	Coverage  float64 // mean per-base read coverage (default 8)
	ErrorRate float64 // per-base sequencing error probability (default 0)
	K         int     // k-mer length (default 27)
	Threads   int     // worker threads (default 1)
	Seed      uint64  // PRNG seed (default 1)
	MinCount  uint64  // minimum count for a solid k-mer (default 1; use 2+ with errors)
	Stripes   int     // sub-tables in the original-style variant (default 4096)
}

func (c Config) withDefaults() Config {
	if c.GenomeLen == 0 {
		c.GenomeLen = 20000
	}
	if c.ReadLen == 0 {
		c.ReadLen = 36
	}
	if c.Coverage == 0 {
		c.Coverage = 8
	}
	if c.K == 0 {
		c.K = 27
	}
	if c.Threads == 0 {
		c.Threads = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MinCount == 0 {
		c.MinCount = 1
	}
	if c.Stripes == 0 {
		c.Stripes = 4096
	}
	return c
}

// Input is a prepared workload: a genome and the reads sampled from it.
// Preparing input is excluded from timed phases, like reading the FASTA
// input in the original.
type Input struct {
	Cfg    Config
	Genome []byte
	Reads  [][]byte
}

// Prepare generates the synthetic genome and reads for cfg.
func Prepare(cfg Config) *Input {
	cfg = cfg.withDefaults()
	r := rng.NewXoshiro256(cfg.Seed)
	genome := GenerateGenome(r, cfg.GenomeLen)
	reads := SampleReads(r, genome, cfg.ReadLen, cfg.Coverage, cfg.ErrorRate)
	return &Input{Cfg: cfg, Genome: genome, Reads: reads}
}

// Result reports one assembly run.
type Result struct {
	Variant       string
	Threads       int
	Reads         int
	DistinctKmers int
	Contigs       [][]byte
	TotalBases    int
	// KmersInContigs is the total number of k-mers consumed across all
	// contigs, Σ(len(contig)−k+1): each solid k-mer lands in exactly one
	// contig, so it equals the number of solid k-mers.
	KmersInContigs int
	Longest        int
	BuildTime      time.Duration
	ProcessTime    time.Duration
	Total          time.Duration
	Stats          core.Stats // synchronization stats (transactified variant)
}

// MethodFactory builds the synchronization method over the run's heap.
type MethodFactory func(m *mem.Memory) core.Method

// heapWords sizes the simulated heap for an assembly run.
func heapWords(cfg Config) int {
	return cfg.GenomeLen*48 + cfg.Stripes*24 + 1<<20
}

// RunTransactified assembles with the transactified variant: one shared
// k-mer table synchronized by the method that factory builds.
func (in *Input) RunTransactified(factory MethodFactory) *Result {
	cfg := in.Cfg
	m := mem.New(heapWords(cfg))
	method := factory(m)
	buckets := 2 * cfg.GenomeLen
	store := newTxStore(m, method, buckets, cfg.Threads)
	res := in.assemble(store, cfg)
	res.Variant = "transactified/" + method.Name()
	res.Stats = store.mergedStats()
	return res
}

// RunOriginal assembles with the original-style fine-grained-locking
// variant (cfg.Stripes lock-striped sub-tables).
func (in *Input) RunOriginal() *Result {
	cfg := in.Cfg
	m := mem.New(heapWords(cfg))
	perStripe := 2 * cfg.GenomeLen / cfg.Stripes
	if perStripe < 4 {
		perStripe = 4
	}
	store := newStripedStore(m, cfg.Stripes, perStripe, cfg.Threads)
	res := in.assemble(store, cfg)
	res.Variant = "original(fine-grained)"
	return res
}

// assemble runs the two timed phases over any store.
func (in *Input) assemble(store kmerStore, cfg Config) *Result {
	res := &Result{Threads: cfg.Threads, Reads: len(in.Reads)}

	// --- Build phase: count k-mers -----------------------------------
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(cfg.Threads)
	localReads := make([][][]byte, cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Reads) {
					return
				}
				read := in.Reads[i]
				// Thread-local storage of the read (the
				// transactified design's simplification).
				localReads[tid] = append(localReads[tid], read)
				for off := 0; off+cfg.K <= len(read); off++ {
					if kmer, ok := PackKmer(read[off:], cfg.K); ok {
						store.add(tid, kmer)
					}
				}
			}
		}(t)
	}
	wg.Wait()
	res.BuildTime = time.Since(start)

	// --- Processing phase: greedy unitig extension -------------------
	pstart := time.Now()
	var chunk atomic.Int64
	contigs := make([][][]byte, cfg.Threads)
	wg.Add(cfg.Threads)
	for t := 0; t < cfg.Threads; t++ {
		go func(tid int) {
			defer wg.Done()
			for {
				ck := int(chunk.Add(1)) - 1
				if ck >= store.chunks() {
					return
				}
				store.forEachInChunk(ck, func(kmer, val uint64) {
					if val&countMask < cfg.MinCount || val&visitedBit != 0 {
						return
					}
					if !store.tryVisit(tid, kmer, cfg.MinCount) {
						return
					}
					contigs[tid] = append(contigs[tid], extend(store, tid, kmer, cfg))
				})
			}
		}(t)
	}
	wg.Wait()
	res.ProcessTime = time.Since(pstart)
	res.Total = res.BuildTime + res.ProcessTime

	// Stitching is not part of the paper's workload, so it stays outside
	// the timed phases.
	var frags [][]byte
	for _, cs := range contigs {
		frags = append(frags, cs...)
	}
	res.Contigs = stitch(store, frags, cfg)
	for _, c := range res.Contigs {
		res.TotalBases += len(c)
		res.KmersInContigs += len(c) - cfg.K + 1
		if len(c) > res.Longest {
			res.Longest = len(c)
		}
	}
	res.DistinctKmers = store.distinct()
	return res
}

// stitch joins contig fragments whose boundary k-mers are unitig
// neighbours. A worker stops extending where another worker has already
// claimed the next k-mer, so with several threads the fragment boundaries
// depend on the schedule; joining across every such boundary leaves the
// maximal unitigs, which do not. A circular unitig has no natural start,
// so it is rotated to begin at its smallest k-mer. The result is the same
// set of contigs for any thread count and any interleaving.
func stitch(store kmerStore, frags [][]byte, cfg Config) [][]byte {
	k := cfg.K
	pack := func(seq []byte) uint64 {
		v, _ := PackKmer(seq, k) // contigs hold only unpacked k-mers: always valid
		return v
	}
	first := make(map[uint64]int, len(frags))
	for i, f := range frags {
		first[pack(f)] = i
	}
	// next[i] is the fragment that continues fragment i, or -1.
	next := make([]int, len(frags))
	hasPrev := make([]bool, len(frags))
	for i, f := range frags {
		next[i] = -1
		last := pack(f[len(f)-k:])
		succ, ok := uniqueSuccessor(store, last, cfg)
		if !ok || !uniqueJoin(store, succ, last, cfg, true) {
			continue
		}
		if j, ok := first[succ]; ok {
			next[i] = j
			hasPrev[j] = true
		}
	}
	done := make([]bool, len(frags))
	join := func(start int) []byte {
		contig := append([]byte(nil), frags[start]...)
		done[start] = true
		for j := next[start]; j >= 0 && !done[j]; j = next[j] {
			contig = append(contig, frags[j][k-1:]...)
			done[j] = true
		}
		return contig
	}
	var out [][]byte
	for i := range frags {
		if !hasPrev[i] {
			out = append(out, join(i))
		}
	}
	for i := range frags {
		if !done[i] {
			out = append(out, rotateCycle(join(i), k))
		}
	}
	return out
}

// rotateCycle rotates a circular unitig to start at its smallest k-mer.
// c spells the cycle's n k-mers once each, so it has n+k-1 bases and
// repeats with period n.
func rotateCycle(c []byte, k int) []byte {
	n := len(c) - k + 1
	best, bestV := 0, uint64(0)
	for i := 0; i < n; i++ {
		if v, _ := PackKmer(c[i:], k); i == 0 || v < bestV {
			best, bestV = i, v
		}
	}
	out := make([]byte, len(c))
	for i := range out {
		out[i] = c[(best+i)%n]
	}
	return out
}

// N50 returns the standard assembly-quality metric: the length L such
// that contigs of length >= L cover at least half of the assembled bases.
// Zero for an empty assembly.
func (r *Result) N50() int {
	if len(r.Contigs) == 0 {
		return 0
	}
	lengths := make([]int, len(r.Contigs))
	for i, c := range r.Contigs {
		lengths[i] = len(c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(lengths)))
	half := (r.TotalBases + 1) / 2
	covered := 0
	for _, l := range lengths {
		covered += l
		if covered >= half {
			return l
		}
	}
	return lengths[len(lengths)-1]
}

// extend grows a unitig from seed in both directions, claiming each
// incorporated k-mer with tryVisit so concurrent workers never emit the
// same k-mer twice.
func extend(store kmerStore, tid int, seed uint64, cfg Config) []byte {
	k := cfg.K
	contig := UnpackKmer(seed, k)

	// Rightward.
	cur := seed
	for {
		next, ok := uniqueSuccessor(store, cur, cfg)
		if !ok || !uniqueJoin(store, next, cur, cfg, true) {
			break
		}
		if !store.tryVisit(tid, next, cfg.MinCount) {
			break
		}
		contig = append(contig, Bases[LastBase(next)])
		cur = next
	}

	// Leftward.
	cur = seed
	for {
		prev, ok := uniquePredecessor(store, cur, cfg)
		if !ok || !uniqueJoin(store, prev, cur, cfg, false) {
			break
		}
		if !store.tryVisit(tid, prev, cfg.MinCount) {
			break
		}
		contig = append([]byte{Bases[FirstBase(prev, k)]}, contig...)
		cur = prev
	}
	return contig
}

// uniqueSuccessor returns the only solid right-extension of cur, if it is
// unique.
func uniqueSuccessor(store kmerStore, cur uint64, cfg Config) (uint64, bool) {
	var found uint64
	n := 0
	for c := uint64(0); c < 4; c++ {
		cand := ExtendRight(cur, cfg.K, c)
		if store.count(cand) >= cfg.MinCount {
			found = cand
			n++
		}
	}
	return found, n == 1
}

// uniquePredecessor returns the only solid left-extension of cur, if it is
// unique.
func uniquePredecessor(store kmerStore, cur uint64, cfg Config) (uint64, bool) {
	var found uint64
	n := 0
	for c := uint64(0); c < 4; c++ {
		cand := ExtendLeft(cur, cfg.K, c)
		if store.count(cand) >= cfg.MinCount {
			found = cand
			n++
		}
	}
	return found, n == 1
}

// uniqueJoin verifies the edge between a new k-mer and the current one is
// unambiguous from the new k-mer's side too (a unitig requires out-degree
// and in-degree one across the joint). rightward indicates the direction
// of travel.
func uniqueJoin(store kmerStore, next, cur uint64, cfg Config, rightward bool) bool {
	if rightward {
		back, ok := uniquePredecessor(store, next, cfg)
		return ok && back == cur
	}
	fwd, ok := uniqueSuccessor(store, next, cfg)
	return ok && fwd == cur
}
