package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"rtle/internal/avl"
	"rtle/internal/check"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/mem"
	"rtle/internal/rng"
)

// avl-scan: the paper's own mechanism, in process. Point operations ride
// the uninstrumented fast path; a 1024-key range count overflows the
// 512-line HTM read capacity and runs under the lock, while point
// operations beside it commit on FG-TLE's instrumented slow path.
const (
	avlKeyRange = 8192
	avlScanSpan = 1024
	avlThreads  = 2
	avlOrecs    = 256
	// Mix in percent: the remainder after insert, remove and scan is
	// Contains (58%). Scans are 2%, not 1%: at 1% about one write in a
	// hundred waits for a scan, so the write p99 sat on the edge between
	// the fast writes (p98 ≈ 9 µs) and the writes waiting for the lock
	// holder (p99.5 ≈ 80 µs) and swung 26–50 µs between runs. At 2% it
	// lies among the waiting writes and repeats within a few percent.
	avlInsertPct = 20
	avlRemovePct = 20
	avlScanPct   = 2
	// avlWarmOps operations per thread precede every timed phase.
	avlWarmOps = 20000
	// avlStream operations per thread are generated from the seed and
	// cycled, so the timed loop spends nothing on drawing inputs.
	avlStream = 1 << 16
)

type avlOp struct {
	kind check.Op // OpContains, OpInsert, OpRemove, or spanScanOp
	key  uint64
}

// avlInputs are the seed-derived inputs: which keys start in the set and
// every thread's operation stream.
type avlInputs struct {
	seedKeys []uint64
	streams  [avlThreads][]avlOp
}

func newAvlInputs(seed uint64) *avlInputs {
	in := &avlInputs{}
	r := rng.NewXoshiro256(seed)
	for k := uint64(0); k < avlKeyRange; k++ {
		if r.Next()&1 == 0 {
			in.seedKeys = append(in.seedKeys, k)
		}
	}
	for t := range in.streams {
		r := rng.NewXoshiro256(seed ^ uint64(t+1)*0x9e3779b97f4a7c15)
		s := make([]avlOp, avlStream)
		for i := range s {
			p := r.Intn(100)
			switch {
			case p < avlScanPct:
				s[i] = avlOp{spanScanOp, r.Uint64n(avlKeyRange - avlScanSpan + 1)}
			case p < avlScanPct+avlInsertPct:
				s[i] = avlOp{check.OpInsert, r.Uint64n(avlKeyRange)}
			case p < avlScanPct+avlInsertPct+avlRemovePct:
				s[i] = avlOp{check.OpRemove, r.Uint64n(avlKeyRange)}
			default:
				s[i] = avlOp{check.OpContains, r.Uint64n(avlKeyRange)}
			}
		}
		in.streams[t] = s
	}
	return in
}

// avlBench is one set-up instance: heap, seeded set, method, threads.
type avlBench struct {
	in      *avlInputs
	m       *mem.Memory
	set     *avl.Set
	threads [avlThreads]core.Thread
	handles [avlThreads]*avl.Handle
	cursor  [avlThreads]int
	// size is the set size the operations so far imply: the seeded keys
	// plus successful inserts minus successful removes.
	size int64
	// badScan records a range count larger than its span.
	badScan error
}

// setUp allocates the heap, seeds the set, builds FG-TLE and warms every
// thread up: everything that precedes the timed phase.
func setUpAvl(in *avlInputs) *avlBench {
	b := &avlBench{in: in}
	b.m = mem.New(harness.DefaultSetHeapWords(avlKeyRange, avlThreads) + 1<<18)
	b.set = avl.New(b.m)
	h := b.set.NewHandle()
	c := core.Direct(b.m)
	for _, k := range in.seedKeys {
		h.AfterInsert(h.InsertCS(c, k))
	}
	b.size = int64(len(in.seedKeys))
	meth := core.NewFGTLE(b.m, avlOrecs, core.Policy{})
	for t := range b.threads {
		b.threads[t] = meth.NewThread()
		b.handles[t] = b.set.NewHandle()
	}
	b.phase(0, avlWarmOps, false)
	return b
}

// avlPhase is what one phase measured.
type avlPhase struct {
	ws      windows
	ops     int64
	elapsed time.Duration
	spans   []span
	stats   core.Stats
}

// phase runs every thread until d has passed (d > 0) or each has done
// maxOps operations (maxOps > 0), timing each operation from call to
// return.
func (b *avlBench) phase(d time.Duration, maxOps int, traced bool) avlPhase {
	type acc struct {
		ws       windows
		ins, rem int64
		spans    []span
		badScan  error
	}
	var accs [avlThreads]acc
	var before [avlThreads]core.Stats
	for t := range b.threads {
		before[t] = *b.threads[t].Stats()
	}
	var wg sync.WaitGroup
	start := time.Now()
	for t := range b.threads {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			a := &accs[t]
			th, h, stream := b.threads[t], b.handles[t], b.in.streams[t]
			a.ws = newWindows(d)
			if traced {
				a.spans = make([]span, 0, 1<<16)
			}
			i := b.cursor[t]
			for n := 0; maxOps <= 0 || n < maxOps; n++ {
				op := stream[i&(avlStream-1)]
				i++
				t0 := time.Since(start)
				switch op.kind {
				case check.OpContains:
					h.Contains(th, op.key)
				case check.OpInsert:
					if h.Insert(th, op.key) {
						a.ins++
					}
				case check.OpRemove:
					if h.Remove(th, op.key) {
						a.rem++
					}
				default:
					if c := h.RangeCount(th, op.key, op.key+avlScanSpan-1); c > avlScanSpan && a.badScan == nil {
						a.badScan = fmt.Errorf("range count of %d keys answered %d", avlScanSpan, c)
					}
				}
				t1 := time.Since(start)
				lat := int64(t1 - t0)
				w := a.ws.at(t1)
				w.ops++
				switch op.kind {
				case spanScanOp:
					w.scan.add(lat)
				case check.OpContains:
					w.point.add(lat)
				default:
					w.point.add(lat)
					w.write.add(lat)
				}
				if traced {
					a.spans = append(a.spans, span{Sched: int64(t0), Sent: int64(t0), Recv: int64(t1), Lane: uint16(t), Op: uint8(op.kind)})
				}
				if d > 0 && t1 >= d {
					break
				}
			}
			b.cursor[t] = i
		}(t)
	}
	wg.Wait()
	p := avlPhase{elapsed: time.Since(start), ws: newWindows(d)}
	for t := range accs {
		a := &accs[t]
		p.ws.merge(a.ws)
		p.spans = append(p.spans, a.spans...)
		b.size += a.ins - a.rem
		if a.badScan != nil && b.badScan == nil {
			b.badScan = a.badScan
		}
		after := *b.threads[t].Stats()
		p.stats.Merge(statsMinus(&after, &before[t]))
	}
	p.ops = p.ws.ops()
	return p
}

// statsMinus returns the counters a accumulated since b.
func statsMinus(a, b *core.Stats) *core.Stats {
	d := &core.Stats{
		Ops:                a.Ops - b.Ops,
		FastCommits:        a.FastCommits - b.FastCommits,
		SlowCommits:        a.SlowCommits - b.SlowCommits,
		LockRuns:           a.LockRuns - b.LockRuns,
		FastAttempts:       a.FastAttempts - b.FastAttempts,
		SlowAttempts:       a.SlowAttempts - b.SlowAttempts,
		SubscriptionAborts: a.SubscriptionAborts - b.SubscriptionAborts,
		LockHoldNanos:      a.LockHoldNanos - b.LockHoldNanos,
	}
	for i := range d.FastAborts {
		d.FastAborts[i] = a.FastAborts[i] - b.FastAborts[i]
		d.SlowAborts[i] = a.SlowAborts[i] - b.SlowAborts[i]
	}
	return d
}

// check verifies the set after the run: AVL invariants, and a size equal
// to the seeded count plus successful inserts minus successful removes.
func (b *avlBench) check(sabotage bool) error {
	if b.badScan != nil {
		return b.badScan
	}
	c := core.Direct(b.m)
	if err := b.set.CheckInvariants(c); err != nil {
		return err
	}
	want := b.size
	if sabotage {
		want++
	}
	if got := int64(b.set.Size(c)); got != want {
		return fmt.Errorf("set holds %d keys, the operations imply %d", got, want)
	}
	return nil
}

// runAvlScan runs the avl-scan workload.
func runAvlScan(cfg *runConfig) (*outcome, error) {
	in := newAvlInputs(cfg.Seed)
	var b *avlBench
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		// Collect the previous instance before timing the next, so set-up
		// time and peak memory do not depend on when the collector runs.
		b = nil
		runtime.GC()
		t0 := time.Now()
		b = setUpAvl(in)
		setups = append(setups, time.Since(t0).Seconds())
	}

	out := newOutcome()
	p := b.phase(cfg.untracedLen(), 0, false)
	if err := out.addWindows(p.ws, p.elapsed); err != nil {
		return nil, err
	}
	untracedTput := float64(p.ops) / p.elapsed.Seconds()
	out.attempted = p.ops
	out.e2e["setup_s"] = reading{value: median(setups), n: len(setups)}
	ps, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	out.e2e["mem_peak_mb"] = reading{value: ps.PeakMB, n: 1}

	if cfg.Trace {
		tc0 := processCPU()
		tp := b.phase(cfg.Duration/2, 0, true)
		tc1 := processCPU()
		out.attempted += tp.ops
		l := out.layers
		countsFromStats(&tp.stats).addTo(l, tp.elapsed.Seconds(), 1)
		l["client.cpu_s_per_mop"] = (tc1 - tc0) / (float64(tp.ops) / 1e6)
		l["loadgen.achieved_over_offered"] = 1
		l["trace.overhead_frac"] = 1 - (float64(tp.ops)/tp.elapsed.Seconds())/untracedTput
		out.spans = tp.spans
	}

	if err := b.check(cfg.sabotage); err != nil {
		out.fail(err)
	}
	return out, nil
}
