package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"rtle/internal/check"
	"rtle/internal/rng"
	"rtle/internal/server"
	"rtle/internal/snap"
)

// wireOp is one generated single operation.
type wireOp struct {
	op         check.Op
	a1, a2, a3 uint64
}

// wireWorkload describes one loopback workload against an rtled child.
type wireWorkload struct {
	// args are rtled's flags; dir is a fresh directory for durable files.
	args func(dir string) []string
	// shards is the -shards value (the number of fallback locks).
	shards int
	// conns connections carry slotsPerConn sequential slots each.
	conns, slotsPerConn int
	// probeRate, when positive, ends the traced run with an open-loop
	// phase at this aggregate arrival rate in ops/s, which measures the
	// load generator. Timed phases are closed loops: every slot re-issues
	// as soon as its previous operation returns.
	probeRate float64
	// scanEvery spaces the multi-key read batches one extra slot issues.
	scanEvery time.Duration
	// gen draws one single operation; scan draws one read batch.
	gen  func(r *rng.Xoshiro256) wireOp
	scan func(r *rng.Xoshiro256) []server.BatchEntry
	// judgeScan checks one read batch's results.
	judgeScan func(entries []server.BatchEntry, res []server.Result) error
	// history records every operation and checks the phase linearizable
	// against a map model seeded from a snapshot taken just before it.
	history bool
	// final checks the server's state after the last phase; sabotage
	// breaks the check on purpose.
	final func(c *server.Client, sabotage bool) error
	// warmOps single operations per slot precede every timed phase.
	warmOps int
}

const (
	// wireStream operations per slot are generated from the seed and
	// cycled.
	wireStream = 1 << 13
	// maxBusyRetries bounds how often one operation is re-sent after a
	// StatusBusy; beyond it the operation counts as failed.
	maxBusyRetries = 100
)

// wireInputs are the seed-derived inputs of one wire workload.
type wireInputs struct {
	streams [][]wireOp
	scanRng *rng.Xoshiro256
}

func (w *wireWorkload) inputs(seed uint64) *wireInputs {
	in := &wireInputs{scanRng: rng.NewXoshiro256(seed ^ 0x5ca7)}
	for s := 0; s < w.conns*w.slotsPerConn; s++ {
		r := rng.NewXoshiro256(seed ^ uint64(s+1)*0x9e3779b97f4a7c15)
		stream := make([]wireOp, wireStream)
		for i := range stream {
			stream[i] = w.gen(r)
		}
		in.streams = append(in.streams, stream)
	}
	return in
}

// wireRig is one booted rtled with its dialled connections.
type wireRig struct {
	proc    *rtledProc
	dir     string
	clients []*server.Client
	cursor  []int
}

func (g *wireRig) close() {
	for _, c := range g.clients {
		_ = c.Close() // the rig is being torn down
	}
	if g.proc != nil {
		g.proc.stop()
	}
	if g.dir != "" {
		_ = os.RemoveAll(g.dir) // scratch files of a finished run
	}
}

// setUp boots rtled, dials and completes the hello on every connection,
// then warms up: everything that precedes a timed phase.
func (w *wireWorkload) setUp(ctx context.Context, cfg *runConfig, in *wireInputs) (*wireRig, error) {
	g := &wireRig{cursor: make([]int, len(in.streams))}
	var err error
	if g.dir, err = os.MkdirTemp(filepath.Join(cfg.Out, "tmp"), "rtled-"); err != nil {
		return nil, err
	}
	if g.proc, err = startRtled(ctx, cfg.Rtled, w.args(g.dir)...); err != nil {
		g.close()
		return nil, err
	}
	for i := 0; i < w.conns; i++ {
		c, err := server.DialContext(ctx, g.proc.addr, server.WithDialTimeout(10*time.Second))
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial rtled: %w", err)
		}
		g.clients = append(g.clients, c)
	}
	wp := w.phase(g, in, 0, w.warmOps, 0, false, nil)
	if wp.failed > 0 {
		g.close()
		return nil, fmt.Errorf("warm-up: %d operations failed: %v", wp.failed, wp.err)
	}
	return g, nil
}

// wirePhase is what one phase measured.
type wirePhase struct {
	ws                windows
	lag               samples
	singles, scans    int64 // completed OK
	attempted, failed int64
	writes            int64 // completed mutating singles
	elapsed           time.Duration
	spans             []span
	err               error // first failure or scan violation
}

// phase drives every slot until d has passed (d > 0) or each slot has
// issued maxOps operations (maxOps > 0), in a closed loop, or in an open
// loop at rate arrivals a second when rate > 0. Closed-loop latency runs
// from call to return; open-loop latency from the scheduled send. With
// hist, every operation is recorded for the linearizability check.
func (w *wireWorkload) phase(g *wireRig, in *wireInputs, d time.Duration, maxOps int, rate float64, traced bool, hist *history) wirePhase {
	slots := len(in.streams)
	parts := make([]wirePhase, slots+1)
	var wg, slotsWG sync.WaitGroup
	start := time.Now()
	// Open loop: a pacer releases arrival k at k/rate, and whichever slot
	// is free sends it, so a slow response delays no later arrival.
	var arrivals chan time.Duration
	var pacerErr error
	slotsDone := make(chan struct{})
	if rate > 0 && d > 0 {
		period := time.Duration(float64(time.Second) / rate)
		tk, t0, err := newKernelTicker(period)
		if err != nil {
			return wirePhase{err: err, failed: 1, attempted: 1}
		}
		start = t0
		// Sized to hold 50 ms of arrivals while every slot is busy; a full
		// buffer stalls the pacer, and the stall shows as lag.
		arrivals = make(chan time.Duration, int(rate/20))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(arrivals)
			defer tk.close()
			for k := 1; ; {
				n, err := tk.wait()
				if err != nil {
					pacerErr = fmt.Errorf("open-loop pacer: %w", err)
					return
				}
				for ; n > 0; n-- {
					sched := time.Duration(k) * period
					if sched >= d {
						return
					}
					select {
					case arrivals <- sched:
					case <-slotsDone: // every slot failed; nobody is left to send
						return
					}
					k++
				}
			}
		}()
	}
	for s := 0; s < slots; s++ {
		slotsWG.Add(1)
		go func(s int) {
			defer slotsWG.Done()
			var rec *recorder
			if hist != nil {
				rec = hist.recs[s]
			}
			g.cursor[s] = w.slot(&parts[s], g.clients[s%w.conns], uint16(s%w.conns), in.streams[s], g.cursor[s],
				start, d, maxOps, arrivals, traced, rec)
		}(s)
	}
	go func() {
		slotsWG.Wait()
		close(slotsDone)
	}()
	if w.scanEvery > 0 && d > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var recs []*recorder
			if hist != nil {
				recs = hist.recs[slots:]
			}
			w.scanner(&parts[slots], g.clients[0], in.scanRng, start, d, traced, recs)
		}()
	}
	<-slotsDone
	wg.Wait()
	p := wirePhase{elapsed: time.Since(start), ws: newWindows(d), err: pacerErr}
	for i := range parts {
		q := &parts[i]
		if q.ws != nil {
			p.ws.merge(q.ws)
		}
		p.lag = append(p.lag, q.lag...)
		p.spans = append(p.spans, q.spans...)
		p.singles += q.singles
		p.scans += q.scans
		p.attempted += q.attempted
		p.failed += q.failed
		p.writes += q.writes
		if p.err == nil {
			p.err = q.err
		}
	}
	return p
}

func isWrite(op check.Op) bool {
	switch op {
	case check.OpInsert, check.OpRemove, check.OpPut, check.OpAdd, check.OpDelete, check.OpTransfer:
		return true
	}
	return false
}

// slot runs one sequential logical client and returns its stream cursor.
func (w *wireWorkload) slot(p *wirePhase, c *server.Client, lane uint16, stream []wireOp, cursor int,
	start time.Time, d time.Duration, maxOps int, arrivals <-chan time.Duration, traced bool, rec *recorder) int {
	var req server.Request
	var res [1]server.Result
	capHint := 1 << 14
	p.ws = newWindows(d)
	p.lag = make(samples, 0, capHint)
	if traced {
		p.spans = make([]span, 0, capHint)
	}
	for n := 0; maxOps <= 0 || n < maxOps; n++ {
		var sched time.Duration
		if arrivals != nil {
			s, ok := <-arrivals
			if !ok {
				break
			}
			sched = s
		} else if sched = time.Since(start); d > 0 && sched >= d {
			break
		}
		op := stream[cursor&(wireStream-1)]
		cursor++
		p.attempted++
		if rec != nil {
			rec.invoke(op.op, op.a1, op.a2)
		}
		var resp server.Response
		var err error
		var sent time.Duration
		for try := 0; ; try++ {
			req = server.Request{Op: op.op, Arg1: op.a1, Arg2: op.a2, Arg3: op.a3}
			t := time.Since(start)
			if try == 0 {
				sent = t
			}
			resp, err = c.DoInto(&req, res[:])
			if traced {
				p.spans = append(p.spans, span{Sched: int64(sched), Sent: int64(t), Recv: int64(time.Since(start)),
					ReqID: req.ID, Lane: lane, Op: uint8(op.op)})
			}
			if err != nil || resp.Status != server.StatusBusy || try >= maxBusyRetries {
				break
			}
			time.Sleep(min(time.Duration(resp.RetryAfterMicros)*time.Microsecond, 20*time.Millisecond))
		}
		recv := time.Since(start)
		switch {
		case err != nil:
			// The response is lost: the operation may or may not have run.
			if rec != nil {
				rec.cut()
			}
			p.failed++
			p.err = fmt.Errorf("%v(%d,%d,%d): %w", op.op, op.a1, op.a2, op.a3, err)
			return cursor
		case resp.Status != server.StatusOK:
			// Busy past the retry budget, bad request, shutdown or not
			// primary: all rejected before execution.
			if rec != nil {
				rec.abandon()
			}
			p.failed++
			if p.err == nil {
				p.err = fmt.Errorf("%v(%d,%d,%d) answered %v %s", op.op, op.a1, op.a2, op.a3, resp.Status, resp.Message)
			}
			continue
		}
		if rec != nil {
			rec.complete(resp.Results[0].Ret, resp.Results[0].Ok)
		}
		p.singles++
		win := p.ws.at(recv)
		win.ops++
		win.point.add(int64(recv - sched))
		p.lag = append(p.lag, int64(sent-sched))
		if isWrite(op.op) {
			p.writes++
			win.write.add(int64(recv - sched))
		}
	}
	return cursor
}

// scanner issues one multi-key read batch every scanEvery on c, timed
// from its send and judged by judgeScan. With recs, every entry
// is recorded as a single read spanning the batch's interval: the batch
// ran atomically at one point inside it, so each read linearizes there.
func (w *wireWorkload) scanner(p *wirePhase, c *server.Client, r *rng.Xoshiro256, start time.Time, d time.Duration,
	traced bool, recs []*recorder) {
	var res []server.Result
	p.ws = newWindows(d)
	for sched := w.scanEvery / 2; sched < d; sched += w.scanEvery {
		time.Sleep(sched - time.Since(start))
		entries := w.scan(r)
		if len(res) < len(entries) {
			res = make([]server.Result, len(entries))
		}
		p.attempted++
		for i, e := range entries[:len(recs)] {
			recs[i].invoke(e.Op, e.Arg1, e.Arg2)
		}
		var resp server.Response
		var err error
		sent := time.Since(start)
		for try := 0; ; try++ {
			req := server.Request{Op: server.OpBatch, Batch: entries}
			t := time.Since(start)
			resp, err = c.DoInto(&req, res)
			if traced {
				p.spans = append(p.spans, span{Sched: int64(sched), Sent: int64(t), Recv: int64(time.Since(start)),
					ReqID: req.ID, Op: spanScanOp})
			}
			if err != nil || resp.Status != server.StatusBusy || try >= maxBusyRetries {
				break
			}
			time.Sleep(min(time.Duration(resp.RetryAfterMicros)*time.Microsecond, 20*time.Millisecond))
		}
		recv := time.Since(start)
		if err == nil && resp.Status != server.StatusOK {
			err = fmt.Errorf("answered %v %s", resp.Status, resp.Message)
		}
		if err == nil && len(resp.Results) != len(entries) {
			err = fmt.Errorf("answered %d results for %d entries", len(resp.Results), len(entries))
		}
		if err != nil {
			for _, rc := range recs {
				rc.cut()
			}
			p.failed++
			p.err = fmt.Errorf("read batch: %w", err)
			return
		}
		for i, rc := range recs {
			rc.complete(resp.Results[i].Ret, resp.Results[i].Ok)
		}
		if jerr := w.judgeScan(entries, resp.Results); jerr != nil && p.err == nil {
			p.err = jerr
		}
		p.scans++
		win := p.ws.at(recv)
		win.ops++
		win.scan.add(int64(recv - sent))
	}
}

// runWire runs a wire workload.
func runWire(ctx context.Context, cfg *runConfig, w *wireWorkload) (*outcome, error) {
	if w.history {
		// The recorded history is large but holds no pointers, so a tight
		// collector bounds the benchmark's memory for little CPU.
		defer debug.SetGCPercent(debug.SetGCPercent(25))
	}
	in := w.inputs(cfg.Seed)
	var g *wireRig
	setups := make([]float64, 0, wireSetupReps)
	for i := 0; i < wireSetupReps; i++ {
		if g != nil {
			g.close()
		}
		t0 := time.Now()
		var err error
		if g, err = w.setUp(ctx, cfg, in); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() {
		if g != nil {
			g.close()
		}
	}()

	out := newOutcome()
	p, err := w.checkedPhase(ctx, cfg, g, in, false, nil)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed = p.attempted, p.failed
	if p.err != nil {
		out.fail(p.err)
	}
	if err := out.addWindows(p.ws, p.elapsed); err != nil {
		return nil, err
	}
	untracedTput := float64(p.singles+p.scans) / p.elapsed.Seconds()
	out.e2e["setup_s"] = reading{value: median(setups), n: len(setups)}

	if cfg.Trace {
		if err := w.tracedPhase(ctx, cfg, g, in, out, untracedTput); err != nil {
			return nil, err
		}
	}

	if err := w.final(g.clients[0], cfg.sabotage); err != nil {
		out.fail(err)
	}
	ps, err := readProc(g.proc.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	out.e2e["mem_peak_mb"] = reading{value: ps.PeakMB, n: 1}
	g.close()
	g = nil

	if cfg.Trace {
		if out.ladder, err = runLadder(ctx, cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkedPhase runs one timed phase and, for a history workload, checks
// it linearizable from a snapshot fetched just before it.
// around, when not nil, is called just before and just after the timed
// phase, outside the check.
func (w *wireWorkload) checkedPhase(ctx context.Context, cfg *runConfig, g *wireRig, in *wireInputs, traced bool,
	around func(start bool) error) (wirePhase, error) {
	var hist *history
	var seed *snap.Snapshot
	if w.history {
		var err error
		sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		seed, err = server.FetchSnapshot(sctx, g.proc.addr)
		cancel()
		if err != nil {
			return wirePhase{}, fmt.Errorf("snapshot before the timed phase: %w", err)
		}
		hist = newHistory(len(in.streams) + w.scanLen())
	}
	if around != nil {
		if err := around(true); err != nil {
			return wirePhase{}, err
		}
	}
	d := cfg.untracedLen()
	if traced {
		d = cfg.Duration / 2
	}
	p := w.phase(g, in, d, 0, 0, traced, hist)
	if around != nil {
		if err := around(false); err != nil {
			return wirePhase{}, err
		}
	}
	if hist != nil {
		if err := hist.check(seed, cfg.sabotage); err != nil && p.err == nil {
			p.err = err
		}
	}
	return p, nil
}

// scanLen is the entry count of one read batch (all batches of a
// workload have the same length).
func (w *wireWorkload) scanLen() int {
	if w.scanEvery <= 0 {
		return 0
	}
	return len(w.scan(rng.NewXoshiro256(1)))
}

// tracedPhase runs the traced phase and fills the per-layer metrics from
// the spans, rtled's /metrics and /proc, read just before and after it.
func (w *wireWorkload) tracedPhase(ctx context.Context, cfg *runConfig, g *wireRig, in *wireInputs, out *outcome, untracedTput float64) error {
	before, err := g.proc.scrape()
	if err != nil {
		return err
	}
	pid := g.proc.cmd.Process.Pid
	srv0, err := readProc(pid)
	if err != nil {
		return err
	}
	var self0, self1 float64
	var srv1 procStat
	var after promSeries
	p, err := w.checkedPhase(ctx, cfg, g, in, true, func(start bool) error {
		if start {
			self0 = processCPU()
			return nil
		}
		self1 = processCPU()
		var err error
		if srv1, err = readProc(pid); err != nil {
			return err
		}
		after, err = g.proc.scrape()
		return err
	})
	if err != nil {
		return err
	}
	out.attempted += p.attempted
	out.failed += p.failed
	if p.err != nil {
		out.fail(p.err)
	}
	out.spans, out.before, out.after = p.spans, before, after

	l := out.layers
	countsFromProm(after).minus(countsFromProm(before)).addTo(l, p.elapsed.Seconds(), w.shards)
	delta := func(name string, frags ...string) float64 {
		return after.sum(name, frags...) - before.sum(name, frags...)
	}
	ops := float64(p.singles + p.scans)
	singles := delta("rtled_requests_total") - delta("rtled_requests_total", `op="batch"`) - delta("rtled_requests_total", `op="ping"`)
	service := ratio(delta("rtled_request_latency_seconds_sum"), delta("rtled_request_latency_seconds_count")) * 1e6
	var clientSum float64
	var clientN int
	for _, s := range p.spans {
		if s.Op != spanScanOp {
			clientSum += float64(s.Recv - s.Sent)
			clientN++
		}
	}
	l["server.service_us_mean"] = service
	l["server.outside_us_mean"] = ratio(clientSum, float64(clientN))/1e3 - service
	l["server.ops_per_section"] = ratio(singles+delta("rtled_batch_ops_total"), delta("rtled_sections_total"))
	l["server.affine_run_len_mean"] = ratio(delta("rtled_affine_ops_total"), delta("rtled_affine_runs_total"))
	l["server.write_batch_frames_mean"] = ratio(delta("rtled_write_batch_frames_sum"), delta("rtled_write_batch_frames_count"))
	l["server.cpu_s_per_mop"] = ratio(srv1.CPUSeconds-srv0.CPUSeconds, ops/1e6)
	l["server.cross_shard_frac"] = ratio(delta("rtled_cross_shard_total"), singles+delta("rtled_batch_ops_total"))
	l["server.slow_block_frac"] = ratio(delta("rtled_slow_blocks_total"), delta("rtled_sections_total"))
	l["server.busy_retries_per_kop"] = 1000 * ratio(delta("rtled_responses_total", `status="busy"`), ops)
	l["client.cpu_s_per_mop"] = ratio(self1-self0, ops/1e6)
	l["repl.entries_per_write"] = ratio(delta("rtled_repl_log_seq"), float64(p.writes))
	l["repl.compactions"] = delta("rtled_repl_log_truncations_total")
	l["trace.overhead_frac"] = 1 - ops/p.elapsed.Seconds()/untracedTput

	// The load generator: how late it sent, and whether it kept up.
	// Closed loops offer what completes; the open-loop probe offers a
	// fixed rate, timed from each arrival's scheduled send.
	l["loadgen.achieved_over_offered"] = 1
	if w.probeRate > 0 {
		d := cfg.Duration / 4
		p = w.phase(g, in, d, 0, w.probeRate, false, nil)
		out.attempted += p.attempted
		out.failed += p.failed
		if p.err != nil {
			out.fail(p.err)
		}
		l["loadgen.achieved_over_offered"] = float64(p.singles) / (w.probeRate * d.Seconds())
	}
	slices.Sort(p.lag)
	l["loadgen.lag_p99_us"] = float64(p.lag.quantile(0.99)) / 1e3
	return nil
}

// judgeBankScan checks that a read of every account sums to the money
// the bank started with.
func judgeBankScan(entries []server.BatchEntry, res []server.Result) error {
	var sum uint64
	for _, r := range res[:len(entries)] {
		sum += r.Ret
	}
	if want := uint64(len(entries)) * server.BankInitial; sum != want {
		return fmt.Errorf("bank conservation violated: %d accounts sum to %d, want %d", len(entries), sum, want)
	}
	return nil
}
