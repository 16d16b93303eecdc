package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"rtle"
	"rtle/internal/avl"
	"rtle/internal/bank"
	"rtle/internal/check"
	"rtle/internal/core"
	"rtle/internal/harness"
	"rtle/internal/htm"
	"rtle/internal/mem"
	"rtle/internal/rng"
	"rtle/internal/server"
	"rtle/internal/tmap"
)

// rung is one step of the layer ladder: a single-goroutine tight loop over
// one layer's public call. The difference between adjacent rungs is the
// cost the upper layer adds.
type rung struct {
	Metric string    `json:"metric"`
	Call   string    `json:"call"`
	PerOp  float64   `json:"per_op"` // in the metric's unit
	Reps   []float64 `json:"reps"`   // per-op cost of each repetition, ns
	Iters  int       `json:"iters"`  // iterations per repetition
}

const (
	ladderReps = 5
	// ladderRepTime is the target duration of one repetition.
	ladderRepTime = 40 * time.Millisecond
)

// timeRung calibrates an iteration count that takes about ladderRepTime,
// then reports the median per-iteration cost of ladderReps repetitions.
func timeRung(metric, call string, scale float64, body func(i int)) rung {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			body(i)
		}
		if el := time.Since(t0); el >= ladderRepTime/4 || iters >= 1<<24 {
			iters = max(1, int(float64(iters)*float64(ladderRepTime)/float64(max(el, 1))))
			break
		}
		iters *= 4
	}
	r := rung{Metric: metric, Call: call, Iters: iters}
	for k := 0; k < ladderReps; k++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			body(i)
		}
		r.Reps = append(r.Reps, float64(time.Since(t0).Nanoseconds())/float64(iters))
	}
	r.PerOp = median(r.Reps) / scale
	return r
}

// ladderKeys is a fixed pseudo-random key sequence for the ADT rungs.
func ladderKeys(n uint64) []uint64 {
	r := rng.NewXoshiro256(0x1add3)
	keys := make([]uint64, 1<<12)
	for i := range keys {
		keys[i] = r.Uint64n(n)
	}
	return keys
}

// runLadder runs every rung, from the simulated HTM up to one loopback
// round trip against its own rtled.
func runLadder(ctx context.Context, cfg *runConfig) ([]rung, error) {
	var out []rung

	// Rungs 1 and 2 run the same body: 8 reads on distinct lines, 1 write.
	m := mem.New(1 << 16)
	base := m.AllocLines(9)
	tx := htm.NewTx(m, htm.Config{})
	out = append(out, timeRung("ladder.htm_run_ns", "htm.Tx.Run (8 reads, 1 write)", 1, func(int) {
		tx.Run(func(tx *htm.Tx) {
			var s uint64
			for j := 0; j < 8; j++ {
				s += tx.Read(base + mem.Addr(j*mem.WordsPerLine))
			}
			tx.Write(base+8*mem.WordsPerLine, s+1)
		})
	}))
	th := core.NewFGTLE(m, avlOrecs, core.Policy{}).NewThread()
	out = append(out, timeRung("ladder.core_atomic_ns", "FG-TLE(256) Thread.Atomic (8 reads, 1 write)", 1, func(int) {
		th.Atomic(func(c core.Context) {
			var s uint64
			for j := 0; j < 8; j++ {
				s += c.Read(base + mem.Addr(j*mem.WordsPerLine))
			}
			c.Write(base+8*mem.WordsPerLine, s+1)
		})
	}))

	// Rung 3: one operation of each ADT under FG-TLE(256).
	am := mem.New(harness.DefaultSetHeapWords(avlKeyRange, 1) + 1<<18)
	set := avl.New(am)
	harness.SeedSet(set, avlKeyRange)
	ath := core.NewFGTLE(am, avlOrecs, core.Policy{}).NewThread()
	ah := set.NewHandle()
	akeys := ladderKeys(avlKeyRange)
	out = append(out, timeRung("ladder.avl_contains_ns", "avl Handle.Contains under FG-TLE(256)", 1, func(i int) {
		ah.Contains(ath, akeys[i&(len(akeys)-1)])
	}))

	tm := mem.New(kvKeys*2*mem.WordsPerLine + 1<<18)
	mp := tmap.New(tm, kvKeys)
	tth := core.NewFGTLE(tm, avlOrecs, core.Policy{}).NewThread()
	th0 := mp.NewHandle()
	for k := uint64(0); k < kvKeys; k++ {
		th0.Put(tth, k, k)
	}
	tkeys := ladderKeys(kvKeys)
	out = append(out, timeRung("ladder.tmap_get_ns", "tmap Handle.Get under FG-TLE(256)", 1, func(i int) {
		th0.Get(tth, tkeys[i&(len(tkeys)-1)])
	}))

	bm := mem.New(bankAccounts*mem.WordsPerLine + 1<<16)
	bk := bank.New(bm, bankAccounts, server.BankInitial)
	bth := core.NewFGTLE(bm, avlOrecs, core.Policy{}).NewThread()
	bkeys := ladderKeys(bankAccounts)
	out = append(out, timeRung("ladder.bank_transfer_ns", "bank Transfer under FG-TLE(256)", 1, func(i int) {
		from := int(bkeys[i&(len(bkeys)-1)])
		bk.Transfer(bth, from, (from+1+i%(bankAccounts-1))%bankAccounts, 1)
	}))

	// Rung 4: the public guard, uncontended.
	g, err := rtle.NewMutex()
	if err != nil {
		return nil, err
	}
	ctr := g.Memory().AllocLines(1)
	out = append(out, timeRung("ladder.guard_do_ns", "rtle.Mutex.Do (1 read, 1 write)", 1, func(int) {
		g.Do(func(c rtle.Context) { c.Write(ctr, c.Read(ctr)+1) })
	}))

	// Rung 5: one unpipelined loopback round trip.
	p, err := startRtled(ctx, cfg.Rtled, "-workload", "map", "-keys", strconv.Itoa(kvKeys), "-shards", "1", "-method", wireMethod)
	if err != nil {
		return nil, err
	}
	defer p.stop()
	c, err := server.DialContext(ctx, p.addr, server.WithDialTimeout(10*time.Second))
	if err != nil {
		return nil, fmt.Errorf("dial rtled: %w", err)
	}
	defer c.Close()
	var req server.Request
	var res [1]server.Result
	var rtErr error
	out = append(out, timeRung("ladder.client_rtt_us", "server Client.DoInto Get, one in flight", 1e3, func(i int) {
		req = server.Request{Op: check.OpGet, Arg1: tkeys[i&(len(tkeys)-1)]}
		resp, err := c.DoInto(&req, res[:])
		if err == nil && resp.Status != server.StatusOK {
			err = fmt.Errorf("answered %v", resp.Status)
		}
		if err != nil && rtErr == nil {
			rtErr = err
		}
	}))
	if rtErr != nil {
		return nil, fmt.Errorf("ladder round trip: %w", rtErr)
	}
	return out, nil
}
