package main

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"rtle/internal/check"
	"rtle/internal/snap"
)

// The kv-wire history holds millions of operations. It is recorded in a
// compact form, a third the size of check.Event, and each key's
// subhistory becomes check.Events only when that key is checked. The
// recording discipline is check.ThreadRecorder's: one shared ticket clock,
// an invoke ticket before the request is sent and a return ticket after
// its response arrived, so ticket order is consistent with real time.

// opRecord is one recorded map operation.
type opRecord struct {
	invoke, ret int64 // tickets; ret is unset while pending
	val         uint64
	arg         uint32 // Put's value or Add's delta (both below 2^32)
	key         uint16 // below kvKeys
	op          check.Op
	ok, pending bool
}

// history is the recording of one phase: one recorder per sequential
// client, all stamping from one clock.
type history struct {
	clock atomic.Int64
	recs  []*recorder
}

func newHistory(clients int) *history {
	h := &history{recs: make([]*recorder, clients)}
	for i := range h.recs {
		h.recs[i] = &recorder{h: h}
	}
	return h
}

// recorder records one sequential client's operations; each must
// complete, be abandoned or be cut before the next is invoked.
type recorder struct {
	h    *history
	recs []opRecord
}

func (r *recorder) invoke(op check.Op, key, arg uint64) {
	r.recs = append(r.recs, opRecord{op: op, key: uint16(key), arg: uint32(arg), invoke: r.h.clock.Add(1)})
}

func (r *recorder) complete(val uint64, ok bool) {
	e := &r.recs[len(r.recs)-1]
	e.val, e.ok, e.ret = val, ok, r.h.clock.Add(1)
}

// abandon drops the pending operation: sound only when it is known not to
// have run (the server rejected it before execution).
func (r *recorder) abandon() { r.recs = r.recs[:len(r.recs)-1] }

// cut keeps the pending operation as pending: its response was lost, so
// the checker must explain it both as run and as never run.
func (r *recorder) cut() { r.recs[len(r.recs)-1].pending = true }

func (o *opRecord) event() check.Event {
	return check.Event{Op: o.op, Arg1: uint64(o.key), Arg2: uint64(o.arg), Ret: o.val, Ok: o.ok,
		Pending: o.pending, Invoke: o.invoke, Return: o.ret}
}

// check verifies the history linearizable against a map that starts in
// the snapshot's state. Every map operation touches one key, so the
// history is linearizable iff every per-key subhistory is, and each key's
// model holds only that key. sabotage adds a read of a value no operation
// wrote, which a working checker must reject.
func (h *history) check(seed *snap.Snapshot, sabotage bool) error {
	n := 0
	for _, r := range h.recs {
		n += len(r.recs)
	}
	all := make([]opRecord, 0, n+1)
	for i, r := range h.recs {
		all = append(all, r.recs...)
		h.recs[i] = nil // let the recorders go while the check runs
	}
	if sabotage {
		last := h.clock.Load()
		all = append(all, opRecord{op: check.OpGet, key: 0, val: 1 << 50, ok: true, invoke: last + 1, ret: last + 2})
	}
	start := map[uint64]uint64{}
	for _, items := range seed.Shards {
		for _, it := range items {
			start[it.Key] = it.Val
		}
	}
	slices.SortFunc(all, func(a, b opRecord) int { return cmp.Compare(a.key, b.key) })
	var events []check.Event
	for i := 0; i < len(all); {
		k := all[i].key
		events = events[:0]
		for ; i < len(all) && all[i].key == k; i++ {
			events = append(events, all[i].event())
		}
		model := check.MapModel()
		if v, ok := start[uint64(k)]; ok {
			model = check.MapModelFrom(map[uint64]uint64{uint64(k): v})
		}
		if !check.CheckLinearizable(model, events) {
			return fmt.Errorf("key %d: subhistory of %d operations is not linearizable", k, len(events))
		}
	}
	return nil
}
