package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"rtle/internal/check"
)

// TestDialOptions covers the functional-option constructor: the hello
// feature mask reaches the server, the deprecated Dial shim still works,
// and both observe the server's negotiation answer.
func TestDialOptions(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})

	c, err := DialContext(context.Background(), addr,
		WithDialTimeout(5*time.Second),
		WithHelloFeatures(1<<7)) // an unknown bit: the server must ignore it
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerFeatures()&FeatureSharded == 0 {
		t.Error("server did not advertise FeatureSharded")
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}

	// The forwarding shim: old signature, same behavior.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.ServerShards() != c.ServerShards() {
		t.Errorf("shim client saw %d shards, option client %d", c2.ServerShards(), c.ServerShards())
	}
}

// TestDialContextCanceled checks a dead context fails the dial instead of
// hanging in the hello exchange.
func TestDialContextCanceled(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DialContext(ctx, addr); err == nil {
		t.Fatal("DialContext with a canceled context succeeded")
	}
}

// TestCloseContextDrains checks the graceful close: requests in flight
// when CloseContext starts still get their responses, requests issued
// after it starts are refused, and the connection ends closed.
func TestCloseContextDrains(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}

	// Keep a stream of requests in flight while the drain begins.
	results := make(chan error, 64)
	for i := 0; i < 16; i++ {
		go func(k uint64) {
			_, err := c.Op(check.OpPut, k, k, 0)
			results <- err
		}(uint64(i))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.CloseContext(ctx); err != nil {
		t.Fatalf("CloseContext: %v", err)
	}
	for i := 0; i < 16; i++ {
		// Each request either completed before the drain finished or was
		// refused by the closing/closed client — never stranded.
		if err := <-results; err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("in-flight request failed oddly: %v", err)
		}
	}
	if _, err := c.Op(check.OpGet, 1, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("request after CloseContext returned %v, want ErrClosed", err)
	}
}

// TestCloseContextExpiredDeadline checks an already-expired drain bound
// still force-closes and reports the context error.
func TestCloseContextExpiredDeadline(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 32})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.CloseContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("CloseContext with dead context returned %v, want context.Canceled", err)
	}
	if _, err := c.Op(check.OpGet, 1, 0, 0); !errors.Is(err, ErrClosed) {
		t.Errorf("request after forced close returned %v, want ErrClosed", err)
	}
}

// TestClientGroupCommitRoutesResponses drives many pipelined callers
// through one client, so their frames share Writes, and checks every
// response belongs to its own request: each caller counts up its own key
// with OpAdd, so a response routed to the wrong caller carries the wrong
// running total.
func TestClientGroupCommitRoutesResponses(t *testing.T) {
	const callers, perCaller = 64, 2000
	_, addr := startServer(t, Config{Workload: "map", Keys: callers})
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			var res [1]Result
			for i := uint64(1); i <= perCaller; i++ {
				req := Request{Op: check.OpAdd, Arg1: key, Arg2: 1}
				resp, err := c.DoInto(&req, res[:])
				if err != nil {
					errs <- err
					return
				}
				if resp.ID != req.ID || resp.Status != StatusOK || len(resp.Results) != 1 || resp.Results[0].Ret != i {
					errs <- fmt.Errorf("key %d op %d: got %+v for request id %d, want total %d", key, i, resp, req.ID, i)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// scriptedConn wraps a client's connection so a test can fail or stall
// its request Writes.
type scriptedConn struct {
	net.Conn
	mu     sync.Mutex
	writes int
	failAt int           // the failAt-th Write (1-based) fails; 0 never
	hold   chan struct{} // non-nil: the first Write waits until it is closed
	held   chan struct{} // closed when the first Write starts waiting
}

var errScripted = errors.New("scripted write failure")

func (sc *scriptedConn) Write(p []byte) (int, error) {
	sc.mu.Lock()
	sc.writes++
	n := sc.writes
	sc.mu.Unlock()
	if n == 1 && sc.hold != nil {
		close(sc.held)
		<-sc.hold
	}
	if n == sc.failAt {
		return 0, errScripted
	}
	return sc.Conn.Write(p)
}

// dialScripted dials the server and routes the client's request Writes
// (and Close) through sc. The read loop keeps reading the real socket.
func dialScripted(t *testing.T, addr string, sc *scriptedConn) *Client {
	t.Helper()
	c, err := DialContext(context.Background(), addr)
	if err != nil {
		t.Fatal(err)
	}
	sc.Conn = c.nc
	c.nc = sc
	return c
}

// waitAll fails the test if wg does not finish within d: a caller stuck
// on a frame that was never written would hang forever.
func waitAll(t *testing.T, wg *sync.WaitGroup, d time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal("callers still blocked: a queued request was stranded")
	}
}

// TestClientFailedWriteFailsEveryQueuedCaller fails one group-commit Write
// mid-run. Every caller whose frame was in that batch or queued after it
// must return an ErrConnClosed error rather than hang, and later requests
// must see the sticky error.
func TestClientFailedWriteFailsEveryQueuedCaller(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 64})
	sc := &scriptedConn{failAt: 20}
	c := dialScripted(t, addr, sc)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(key uint64) {
			defer wg.Done()
			var res [1]Result
			for {
				req := Request{Op: check.OpAdd, Arg1: key, Arg2: 1}
				if _, err := c.DoInto(&req, res[:]); err != nil {
					errs <- err
					return
				}
			}
		}(uint64(g))
	}
	waitAll(t, &wg, 30*time.Second)
	close(errs)
	for err := range errs {
		if !errors.Is(err, ErrConnClosed) {
			t.Errorf("caller failed with %v, want ErrConnClosed", err)
		}
	}
	if _, err := c.Op(check.OpGet, 1, 0, 0); !errors.Is(err, ErrConnClosed) {
		t.Errorf("request after the failed write returned %v, want the sticky ErrConnClosed", err)
	}
}

// TestClientQueuedFrameNotStranded stalls the flusher's first Write until
// a second caller has queued its frame behind it. The flusher must pick
// that frame up once its Write returns, so both calls complete.
func TestClientQueuedFrameNotStranded(t *testing.T) {
	_, addr := startServer(t, Config{Workload: "map", Keys: 64})
	sc := &scriptedConn{hold: make(chan struct{}), held: make(chan struct{})}
	c := dialScripted(t, addr, sc)
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	call := func(key uint64) {
		defer wg.Done()
		_, err := c.Op(check.OpPut, key, key, 0)
		errs <- err
	}
	wg.Add(2)
	go call(1)
	<-sc.held // the first caller is flushing, stalled inside Write
	go call(2)
	for queued := false; !queued; {
		time.Sleep(time.Millisecond)
		c.wmu.Lock()
		queued = len(c.wq) > 0
		c.wmu.Unlock()
	}
	close(sc.hold)
	waitAll(t, &wg, 10*time.Second)
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("call failed: %v", err)
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.writes != 2 {
		t.Errorf("%d Writes, want 2: the stalled one and the queued frame's", sc.writes)
	}
}
