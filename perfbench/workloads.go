package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"rtle/internal/check"
	"rtle/internal/rng"
	"rtle/internal/server"
)

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"avl-scan", "kv-wire", "bank-wire"}

const (
	// Every wire workload runs FG-TLE(256) with rtled's default workers
	// and coalescing cap.
	wireMethod = "FG-TLE(256)"

	kvKeys     = 4096
	kvScanKeys = 64

	bankAccounts = 256
	bankShards   = 2
	// bankProbeRate is the arrival rate of the open-loop probe that ends
	// a traced bank-wire run: about a fifth of the ~108k ops/s the closed
	// loop completes on a 2-core host, so the server is loaded but not
	// saturated and the coalescer and the affinity runs have little
	// backlog to work with.
	bankProbeRate = 20000
	// bankCompactEvery makes rtled compact its durable log a few times a
	// second under the closed loop (each transfer appends about one
	// entry).
	bankCompactEvery = 20000
)

// kvWire: the serving pipeline and the client do most of the work. A
// critical section is about 1 µs of a wire operation that takes 10 µs or
// more, and lock fallbacks are about 0.
var kvWire = &wireWorkload{
	args: func(string) []string {
		return []string{"-workload", "map", "-keys", strconv.Itoa(kvKeys), "-shards", "1", "-method", wireMethod}
	},
	shards:       1,
	conns:        2,
	slotsPerConn: 32,
	// Frequent enough that the scan median rests on ~2000 batches a run,
	// rare enough to add under 6% to the reads.
	scanEvery: 10 * time.Millisecond,
	warmOps:   500,
	history:   true,
	gen: func(r *rng.Xoshiro256) wireOp {
		key := r.Uint64n(kvKeys)
		p := r.Intn(30)
		switch {
		case p >= 3:
			return wireOp{op: check.OpGet, a1: key}
		case p == 0:
			return wireOp{op: check.OpPut, a1: key, a2: r.Uint64n(1 << 20)}
		case p == 1:
			return wireOp{op: check.OpAdd, a1: key, a2: 1 + r.Uint64n(9)}
		default:
			return wireOp{op: check.OpDelete, a1: key}
		}
	},
	scan: func(r *rng.Xoshiro256) []server.BatchEntry {
		lo := r.Uint64n(kvKeys)
		e := make([]server.BatchEntry, kvScanKeys)
		for i := range e {
			e[i] = server.BatchEntry{Op: check.OpGet, Arg1: (lo + uint64(i)) % kvKeys}
		}
		return e
	},
	judgeScan: func([]server.BatchEntry, []server.Result) error { return nil },
	final:     func(*server.Client, bool) error { return nil },
}

// bankWire: writes beside kv-wire's reads. About half the transfers cross
// shards and take the exclusive-gate slow path, every transfer appends to
// the durable replication log, and compaction periodically holds all
// gates. Its timed phases are a closed loop: on a shared 2-core host the
// open loop's tails followed the hypervisor's steal time and spread by
// 0.3 to 1.2 (IQR over median) across ten runs, so the open loop runs
// only as the traced run's probe of the load generator.
var bankWire = &wireWorkload{
	args: func(dir string) []string {
		return []string{"-workload", "bank", "-keys", strconv.Itoa(bankAccounts), "-shards", strconv.Itoa(bankShards),
			"-method", wireMethod,
			"-repl-log", filepath.Join(dir, "repl.log"), "-snap-file", filepath.Join(dir, "state.snap"),
			"-compact-every", strconv.Itoa(bankCompactEvery)}
	},
	shards:       bankShards,
	conns:        2,
	slotsPerConn: 32,
	probeRate:    bankProbeRate,
	scanEvery:    50 * time.Millisecond,
	warmOps:      1000,
	gen: func(r *rng.Xoshiro256) wireOp {
		from := r.Uint64n(bankAccounts)
		if r.Intn(2) == 0 {
			return wireOp{op: check.OpBalance, a1: from}
		}
		to := (from + 1 + r.Uint64n(bankAccounts-1)) % bankAccounts
		return wireOp{op: check.OpTransfer, a1: from, a2: to, a3: 1 + r.Uint64n(100)}
	},
	scan:      func(*rng.Xoshiro256) []server.BatchEntry { return allAccounts() },
	judgeScan: judgeBankScan,
	final: func(c *server.Client, sabotage bool) error {
		entries := allAccounts()
		resp, err := c.Batch(entries)
		if err != nil {
			return fmt.Errorf("final read of every account: %w", err)
		}
		if resp.Status != server.StatusOK || len(resp.Results) != len(entries) {
			return fmt.Errorf("final read of every account answered %v %s", resp.Status, resp.Message)
		}
		if sabotage {
			resp.Results[0].Ret++
		}
		return judgeBankScan(entries, resp.Results)
	},
}

// allAccounts is one read batch over every bank account.
func allAccounts() []server.BatchEntry {
	e := make([]server.BatchEntry, bankAccounts)
	for i := range e {
		e[i] = server.BatchEntry{Op: check.OpBalance, Arg1: uint64(i)}
	}
	return e
}
