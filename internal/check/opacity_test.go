package check

import (
	"strings"
	"testing"

	"rtle/internal/htm"
	"rtle/internal/mem"
)

// Synthetic opacity fixtures over two addresses (word 0 of lines 1 and 2).
const (
	addrA = mem.Addr(1 * mem.WordsPerLine)
	addrB = mem.Addr(2 * mem.WordsPerLine)
)

func baseState() (uint64, map[mem.Addr]uint64) {
	return 10, map[mem.Addr]uint64{addrA: 1, addrB: 2}
}

func TestOpacitySerialHistoryPasses(t *testing.T) {
	base, init := baseState()
	recs := []TxRecord{
		// Writer at v=11: reads the initial state, writes A=100.
		{Thread: 0, Committed: true, CommitVersion: 11,
			Reads:  []ReadObs{{addrA, 1}, {addrB, 2}},
			Writes: []WriteObs{{addrA, 100}}},
		// Read-only at snapshot 11: must see A=100.
		{Thread: 1, Committed: true, CommitVersion: 11,
			Reads: []ReadObs{{addrA, 100}, {addrB, 2}}},
		// Read-only at snapshot 10: still sees the initial A.
		{Thread: 1, Committed: true, CommitVersion: 10,
			Reads: []ReadObs{{addrA, 1}}},
		// Writer at v=13 saw the first writer's A.
		{Thread: 2, Committed: true, CommitVersion: 13,
			Reads:  []ReadObs{{addrA, 100}},
			Writes: []WriteObs{{addrB, 200}}},
		// Aborted attempt that read a consistent prefix (state at v=11).
		{Thread: 3, Reads: []ReadObs{{addrA, 100}, {addrB, 2}}},
	}
	if err := CheckOpacity(base, init, recs); err != nil {
		t.Fatalf("consistent history rejected: %v", err)
	}
}

func TestOpacityCommittedWriterStaleRead(t *testing.T) {
	base, init := baseState()
	recs := []TxRecord{
		{Thread: 0, Committed: true, CommitVersion: 11,
			Writes: []WriteObs{{addrA, 100}}},
		// This writer serializes after the first but read the old A.
		{Thread: 1, Committed: true, CommitVersion: 12,
			Reads:  []ReadObs{{addrA, 1}},
			Writes: []WriteObs{{addrB, 5}}},
	}
	err := CheckOpacity(base, init, recs)
	if err == nil || !strings.Contains(err.Error(), "committed writer") {
		t.Fatalf("stale committed read not caught: %v", err)
	}
}

func TestOpacityAbortedTornRead(t *testing.T) {
	base, init := baseState()
	recs := []TxRecord{
		// One committed writer updates both addresses atomically.
		{Thread: 0, Committed: true, CommitVersion: 11,
			Writes: []WriteObs{{addrA, 100}, {addrB, 200}}},
		// The aborted attempt saw new A but old B: no single version
		// has that combination.
		{Thread: 1, Reads: []ReadObs{{addrA, 100}, {addrB, 2}}},
	}
	err := CheckOpacity(base, init, recs)
	if err == nil || !strings.Contains(err.Error(), "torn state") {
		t.Fatalf("torn aborted read not caught: %v", err)
	}
}

func TestOpacityReadOnlySnapshotMismatch(t *testing.T) {
	base, init := baseState()
	recs := []TxRecord{
		{Thread: 0, Committed: true, CommitVersion: 11,
			Writes: []WriteObs{{addrA, 100}}},
		// Snapshot 11 must already include the write.
		{Thread: 1, Committed: true, CommitVersion: 11,
			Reads: []ReadObs{{addrA, 1}}},
	}
	err := CheckOpacity(base, init, recs)
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("read-only snapshot mismatch not caught: %v", err)
	}
}

func TestOpacityDuplicateCommitVersions(t *testing.T) {
	base, init := baseState()
	recs := []TxRecord{
		{Committed: true, CommitVersion: 11, Writes: []WriteObs{{addrA, 3}}},
		{Committed: true, CommitVersion: 11, Writes: []WriteObs{{addrB, 4}}},
	}
	if err := CheckOpacity(base, init, recs); err == nil {
		t.Fatal("duplicate commit versions not caught")
	}
}

// TestRawHTMOpacityCleanRun validates the harness itself: without fault
// injection, a concurrent raw-HTM run must produce an opaque history with
// some commits and (under contention) some aborts.
func TestRawHTMOpacityCleanRun(t *testing.T) {
	base, initial, recs := RunRawHTM(RawConfig{
		Threads: 4, Attempts: 200, Lines: 4, AccessesPerAttempt: 5, Seed: 7,
	}, htm.Config{})
	if err := CheckOpacity(base, initial, recs); err != nil {
		t.Fatalf("clean raw-HTM run not opaque: %v", err)
	}
	var committed int
	for _, r := range recs {
		if r.Committed {
			committed++
		}
	}
	if committed == 0 {
		t.Fatal("no attempt committed")
	}
}

// TestRawHTMOpacitySeedSweep runs the fault-free raw-HTM workload over many
// seeds. Commit ordering bugs are schedule-dependent: one seed can pass by
// luck, while a sweep of short, highly contended runs reliably hits the
// window between a committer's read validation and its write version.
func TestRawHTMOpacitySeedSweep(t *testing.T) {
	for seed := uint64(1); seed <= 24; seed++ {
		base, initial, recs := RunRawHTM(RawConfig{
			Threads: 4, Attempts: 400, Lines: 4, AccessesPerAttempt: 5, Seed: seed,
		}, htm.Config{})
		if err := CheckOpacity(base, initial, recs); err != nil {
			t.Errorf("seed %d: opacity violated: %v", seed, err)
		}
	}
}
