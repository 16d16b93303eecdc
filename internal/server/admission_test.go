package server

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"rtle/internal/check"
)

// deliver admits reqs on c as the read loop does and flushes the pending
// run. A non-nil swap becomes the live generation after the requests were
// classified and before they are queued: the run is built by hand, since
// admit flushes a slow op as soon as it is planned.
func deliver(s *Server, c *conn, reqs []Request, swap *topology) {
	var run affRun
	if swap == nil {
		for _, req := range reqs {
			s.admit(c, &run, req)
		}
	} else {
		run.tp = s.top()
		run.plan = run.tp.router.plan(&reqs[0])
		for _, req := range reqs {
			run.add(c, req)
		}
		s.topo.Store(swap)
	}
	s.flushRun(c, &run)
}

// waitGroupIdle fails the test unless wg's counter is zero.
func waitGroupIdle(t *testing.T, name string, wg interface{ Wait() }) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Errorf("%s still counts tasks", name)
	}
}

// queuesOf lists a generation's slow queue, then its shard queues.
func queuesOf(tp *topology) []chan *task {
	qs := []chan *task{tp.slowQueue}
	for _, sh := range tp.shards {
		qs = append(qs, sh.queue)
	}
	return qs
}

// takeChains empties q and returns the IDs of each chain on it, in queue
// order, skipping uncounted fillers. It releases every task's counts as a
// worker would, so assertReleased passes afterwards only if admission
// counted exactly what landed. Every slow task in these tests is a
// transfer between shards 0 and 1.
func takeChains(t *testing.T, srv *Server, c *conn, q chan *task) [][]uint32 {
	t.Helper()
	var chains [][]uint32
	for len(q) > 0 {
		h := <-q
		if h.c == nil {
			continue // filler
		}
		var chain []uint32
		for x := h; x != nil; x = x.next {
			chain = append(chain, x.req.ID)
			if x.c != c {
				t.Errorf("id %d lost its connection", x.req.ID)
			}
			if x.sh != nil {
				x.sh.m.queueDepth.Add(-1)
			} else {
				srv.metrics.slowDepth.Add(-1)
				if !reflect.DeepEqual(x.spans, []int{0, 1}) {
					t.Errorf("slow id %d spans %v, want [0 1]", x.req.ID, x.spans)
				}
			}
			c.tasks.Done()
			srv.tasksWG.Done()
		}
		chains = append(chains, chain)
	}
	return chains
}

// assertReleased checks that no depth gauge or task count is left over.
func assertReleased(t *testing.T, srv *Server, c *conn, gens ...*topology) {
	t.Helper()
	for _, g := range gens {
		for _, sh := range g.shards {
			if d := sh.m.queueDepth.Load(); d != 0 {
				t.Errorf("shard %d queue depth off by %d", sh.id, d)
			}
		}
	}
	if d := srv.metrics.slowDepth.Load(); d != 0 {
		t.Errorf("slow depth off by %d", d)
	}
	waitGroupIdle(t, "conn tasks", &c.tasks)
	waitGroupIdle(t, "server tasks", &srv.tasksWG)
}

// TestAdmissionContract pins admission without a listener or workers. A
// fast chain of three single-shard ops and a cross-shard transfer are each
// admitted into an open queue, a full destination queue, a draining
// server, and a topology swapped between classification and flush. The
// test checks every answer's ID, status and busy hint, which chains land
// on which queue, and that the task counts and depth gauges match exactly
// what landed — so a rejection leaves nothing behind.
func TestAdmissionContract(t *testing.T) {
	type load struct {
		name string
		reqs func(tp *topology) []Request
		// dest is the queue the load lands on in tp, and hint the shard
		// whose retry hint a busy answer carries.
		dest func(tp *topology) (q chan *task, hint *shard)
	}
	account := func(tp *topology, shard, i int) uint64 { return tp.router.ownedAccounts(shard)[i] }
	loads := []load{{
		name: "fast-chain",
		reqs: func(tp *topology) []Request {
			return []Request{
				{ID: 1, Op: check.OpBalance, Arg1: account(tp, 1, 0)},
				{ID: 2, Op: check.OpBalance, Arg1: account(tp, 1, 1)},
				{ID: 3, Op: check.OpBalance, Arg1: account(tp, 1, 2)},
			}
		},
		dest: func(tp *topology) (chan *task, *shard) { return tp.shards[1].queue, tp.shards[1] },
	}, {
		name: "cross-shard-transfer",
		reqs: func(tp *topology) []Request {
			return []Request{{ID: 7, Op: check.OpTransfer, Arg1: account(tp, 1, 0), Arg2: account(tp, 0, 0), Arg3: 5}}
		},
		dest: func(tp *topology) (chan *task, *shard) { return tp.slowQueue, tp.shards[0] },
	}}

	for _, ld := range loads {
		for _, cond := range []string{"accepted", "queue-full", "draining", "swapped"} {
			t.Run(ld.name+"/"+cond, func(t *testing.T) {
				srv, err := New(Config{Workload: "bank", Shards: 2, Keys: 16, QueueDepth: 4})
				if err != nil {
					t.Fatal(err)
				}
				tp := srv.top()
				// Distinct retry hints: shard k advises (k+1) ms.
				for k, sh := range tp.shards {
					sh.m.ewmaServiceNanos.Store(int64(k+1) * 1_000_000)
					sh.m.inflight.Store(int64(srv.cfg.Workers))
				}
				reqs := ld.reqs(tp)
				q, hint := ld.dest(tp)
				var ids []uint32
				for _, r := range reqs {
					ids = append(ids, r.ID)
				}

				var (
					swap     *topology
					answer   Status     // status every request is answered with; 0 when accepted
					wantLand [][]uint32 // chains expected on landQ, in order
					landQ    = q
				)
				switch cond {
				case "accepted":
					wantLand = [][]uint32{ids}
				case "queue-full":
					for len(q) < cap(q) {
						q <- &task{} // uncounted filler
					}
					answer = StatusBusy
				case "draining":
					srv.drainMu.Lock()
					srv.draining = true
					srv.drainMu.Unlock()
					answer = StatusShutdown
				case "swapped":
					// The new generation has one shard, so every request —
					// the transfer included — re-plans onto its shard 0, as
					// a run of one.
					if swap, err = srv.buildTopology(1); err != nil {
						t.Fatal(err)
					}
					landQ = swap.shards[0].queue
					for _, id := range ids {
						wantLand = append(wantLand, []uint32{id})
					}
				}

				c := &conn{out: make(chan *frameBuf, 8)}
				deliver(srv, c, reqs, swap)

				// Answers, in admission order.
				for _, id := range ids {
					if answer == 0 {
						break
					}
					var f *frameBuf
					select {
					case f = <-c.out:
					default:
						t.Fatalf("no answer for id %d", id)
					}
					resp, err := DecodeResponse(f.b[4:])
					if err != nil {
						t.Fatal(err)
					}
					if resp.ID != id || resp.Status != answer {
						t.Fatalf("answered id %d %v, want id %d %v", resp.ID, resp.Status, id, answer)
					}
					if answer == StatusBusy {
						if w := hint.m.retryAfterMicros(srv.cfg.Workers); resp.RetryAfterMicros != w {
							t.Errorf("id %d retry-after %dus, want the target shard's %dus", id, resp.RetryAfterMicros, w)
						}
						if resp.QueueDepth != 0 {
							t.Errorf("id %d busy at queue depth %d, want 0 after the rollback", id, resp.QueueDepth)
						}
					}
				}
				if n := len(c.out); n != 0 {
					t.Fatalf("%d unexpected answers", n)
				}

				gens := []*topology{tp}
				if swap != nil {
					gens = append(gens, swap)
				}
				for _, g := range gens {
					for _, gq := range queuesOf(g) {
						var want [][]uint32
						if gq == landQ {
							want = wantLand
						}
						if got := takeChains(t, srv, c, gq); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("queue holds chains %v, want %v", got, want)
						}
					}
				}
				assertReleased(t, srv, c, gens...)
			})
		}
	}
}

// TestAdmissionRunBoundaries pins where runs break. A newcomer on another
// shard or on the slow path flushes the pending run first, a slow op is a
// run of one on the slow queue, and a run stops at affinityRunCap.
func TestAdmissionRunBoundaries(t *testing.T) {
	srv, err := New(Config{Workload: "bank", Shards: 2, Keys: 16, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	tp := srv.top()
	account := func(shard, i int) uint64 { return tp.router.ownedAccounts(shard)[i] }
	reqs := []Request{
		{ID: 1, Op: check.OpBalance, Arg1: account(1, 0)},
		{ID: 2, Op: check.OpBalance, Arg1: account(1, 1)},
		{ID: 3, Op: check.OpTransfer, Arg1: account(1, 0), Arg2: account(0, 0), Arg3: 1},
		{ID: 4, Op: check.OpBalance, Arg1: account(0, 0)},
		{ID: 5, Op: check.OpBalance, Arg1: account(1, 2)},
	}
	var full []uint32 // one run at the cap, then a run of one
	for id := uint32(6); id < 6+affinityRunCap; id++ {
		reqs = append(reqs, Request{ID: id, Op: check.OpBalance, Arg1: account(0, 1)})
		full = append(full, id)
	}
	last := uint32(6 + affinityRunCap)
	reqs = append(reqs, Request{ID: last, Op: check.OpBalance, Arg1: account(0, 1)})

	c := &conn{out: make(chan *frameBuf, 1)}
	deliver(srv, c, reqs, nil)
	if n := len(c.out); n != 0 {
		t.Fatalf("%d answers for accepted requests", n)
	}
	for _, w := range []struct {
		name string
		q    chan *task
		want [][]uint32
	}{
		{"slow", tp.slowQueue, [][]uint32{{3}}},
		{"shard 0", tp.shards[0].queue, [][]uint32{{4}, full, {last}}},
		{"shard 1", tp.shards[1].queue, [][]uint32{{1, 2}, {5}}},
	} {
		if got := takeChains(t, srv, c, w.q); fmt.Sprint(got) != fmt.Sprint(w.want) {
			t.Errorf("%s queue holds chains %v, want %v", w.name, got, w.want)
		}
	}
	assertReleased(t, srv, c, tp)
}
