package server

import (
	"io"
	"net"
	"testing"

	"rtle/internal/check"
	"rtle/internal/core"
)

// fastPathHarness is an in-process single-op serving pipeline: the real
// router over the real shards, with one executor and method thread per
// shard standing in for the worker pool. Buffers mirror the per-connection
// and per-worker scratch the serving loops reuse.
type fastPathHarness struct {
	srv     *Server
	ex      []*executor
	threads []core.Thread
	reqBuf  []byte
	results []Result

	// Response-side scratch, mirroring writeLoop's conn-lifetime iovec
	// backing array, its boxed view (see writeLoop for why the view must
	// not be re-boxed per batch), and the client's per-slot decode scratch.
	bufs   net.Buffers
	view   *net.Buffers
	sink   io.Writer
	cliRes [1]Result

	// The decoded operation is staged in fields so the per-shard atomic
	// bodies can be built once at setup — the worker's block closures are
	// likewise reused across its whole lifetime, not built per request.
	op         Op
	a1, a2, a3 uint64
	bodies     []func(core.Context)
	resp       Response
}

func newFastPathHarness(tb testing.TB) *fastPathHarness {
	tb.Helper()
	srv, err := New(Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64})
	if err != nil {
		tb.Fatal(err)
	}
	h := &fastPathHarness{
		srv:     srv,
		reqBuf:  make([]byte, 0, 64),
		results: make([]Result, 1),
		bufs:    make(net.Buffers, 1),
		view:    new(net.Buffers),
		sink:    io.Discard,
	}
	for k, sh := range srv.top().shards {
		h.ex = append(h.ex, sh.adt.newExecutor(1))
		h.threads = append(h.threads, sh.method.NewThread())
		ex := h.ex[k]
		h.bodies = append(h.bodies, func(c core.Context) {
			h.results[0] = ex.run(c, 0, h.op, h.a1, h.a2, h.a3)
		})
	}
	return h
}

// serve pushes one request through the wire fast path end to end: encode
// the frame, decode it back (the server's read side), validate, route,
// execute the operation in an atomic block on the routed shard, encode the
// response into a pooled frame buffer, flush it through the vectored
// writer, recycle the buffer, and decode the response into the
// client-side result scratch — everything both ends do per request except
// the socket itself and the queue handoff.
func (h *fastPathHarness) serve(req *Request) error {
	h.reqBuf = AppendRequest(h.reqBuf[:0], req)
	decoded, err := DecodeRequest(h.reqBuf[4:])
	if err != nil {
		return err
	}
	if err := h.srv.validate(&decoded); err != nil {
		return err
	}
	plan := h.srv.top().router.plan(&decoded)
	h.op, h.a1, h.a2, h.a3 = decoded.Op, decoded.Arg1, decoded.Arg2, decoded.Arg3
	h.threads[plan.shard].Atomic(h.bodies[plan.shard])
	// Post-commit bookkeeping, exactly as the worker does it: an insert
	// consumed the handle's spare node, so replace it before the next
	// operation reuses the handle.
	h.ex[plan.shard].after(0, decoded.Op, h.results[0])
	h.resp = Response{ID: decoded.ID, Status: StatusOK, Results: h.results[:1]}

	// Response side: pooled frame, vectored flush, recycle — writeLoop's
	// steady state with a one-frame batch.
	f := getFrame()
	f.b = AppendResponse(f.b, &h.resp)
	h.bufs[0] = f.b
	*h.view = h.bufs[:1]
	if err := writeBuffers(h.sink, h.view); err != nil {
		return err
	}

	// Client side: decode the response into the caller's result scratch,
	// as Client.readLoop does for a DoInto caller.
	cresp, err := DecodeResponseInto(f.b[4:], h.cliRes[:])
	putFrame(f)
	if err != nil {
		return err
	}
	if cresp.ID != decoded.ID || cresp.Status != StatusOK {
		return errShort
	}
	return nil
}

// BenchmarkWireFastPathAllocs measures the per-request allocation cost of
// the wire fast path. The hotalloc pass proves this path free of *new*
// allocation sites; this benchmark prices the waived ones, so a regression
// shows up as a number even when it hides behind an //rtle:ignore.
func BenchmarkWireFastPathAllocs(b *testing.B) {
	h := newFastPathHarness(b)
	req := Request{Op: check.OpPut, Arg2: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req.ID = uint32(i)
		req.Arg1 = uint64(i % 64)
		if err := h.serve(&req); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWireFastPathAllocBudget pins the fast path's steady-state allocation
// count at zero: with the connection and worker scratch reused, serving
// one single-op request must not allocate at all. A nonzero count means a
// new allocation crept onto the path — the dynamic twin of the hotalloc
// pass's static claim.
func TestWireFastPathAllocBudget(t *testing.T) {
	h := newFastPathHarness(t)
	req := Request{Op: check.OpPut, Arg2: 42}
	id := uint32(0)
	run := func() {
		id++
		req.ID = id
		req.Arg1 = uint64(id % 64)
		if err := h.serve(&req); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up: the first call grows the frame buffers to capacity
	if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
		t.Errorf("wire fast path allocates %.1f times per request, want 0", allocs)
	}
}

// raceEnabled reports a -race build (set in race_test.go).
var raceEnabled bool

// TestClientRoundTripAllocBudget extends the zero-alloc budget past the
// harness to a real round trip: Client.DoInto over loopback to an
// in-process server, through the group-commit queue, the read loop's
// demultiplexer and the server's serving loops. AllocsPerRun counts every
// goroutine's allocations, so the server's share is in the budget too.
func TestClientRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	_, addr := startServer(t, Config{Workload: "map", Method: "TLE", Workers: 1, Keys: 64})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var res [1]Result
	req := Request{Op: check.OpPut, Arg2: 42}
	run := func() {
		req.Arg1 = (req.Arg1 + 1) % 64
		if _, err := c.DoInto(&req, res[:]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		run() // warm up: pools, queue buffers and map nodes reach steady state
	}
	if allocs := testing.AllocsPerRun(1000, run); allocs > 0 {
		t.Errorf("client round trip allocates %.1f times per request, want 0", allocs)
	}
}
