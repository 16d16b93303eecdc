package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// samples is a set of raw per-operation durations in nanoseconds. Every
// percentile the benchmark reports is computed from these exactly; no
// histogram bucket is interpolated.
type samples []int64

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of a sorted
// sample set: the smallest value with at least q·n samples at or below it.
func (s samples) quantile(q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// beyond counts the samples strictly greater than v in a sorted set.
func (s samples) beyond(v int64) int {
	i, _ := slices.BinarySearch(s, v+1)
	return len(s) - i
}

// minBeyondP99 is how many samples must lie beyond a p99 for it to be
// reported: fewer, and the tail is one or two unlucky operations.
const minBeyondP99 = 10

// percentile is one reported percentile with its sample accounting.
type percentile struct {
	Micros float64
	N      int
	Beyond int
}

// newPercentile reports the q-quantile v of n samples, beyond of which
// exceed it. A p99 (q >= 0.99) with fewer than minBeyondP99 samples
// beyond it is refused.
func newPercentile(q float64, v int64, n, beyond int) (percentile, error) {
	p := percentile{Micros: float64(v) / 1e3, N: n, Beyond: beyond}
	if q >= 0.99 && beyond < minBeyondP99 {
		return p, fmt.Errorf("p%g of %d samples has only %d beyond it (need %d)",
			q*100, n, beyond, minBeyondP99)
	}
	return p, nil
}

// fineNanos bounds the durations latHist counts one nanosecond apart.
const fineNanos = 1 << 14

// latHist holds durations exactly, at the clock's nanosecond resolution:
// a count per nanosecond below fineNanos (allocated on the first such
// duration), and longer durations as raw values. Short durations, the
// bulk of the in-process workload, then cost a fixed amount of memory,
// so the benchmark's own footprint does not grow with the throughput it
// measures.
type latHist struct {
	fine   []uint32
	coarse samples
	n      int
}

func (h *latHist) add(ns int64) {
	h.n++
	if ns >= 0 && ns < fineNanos {
		if h.fine == nil {
			h.fine = make([]uint32, fineNanos)
		}
		h.fine[ns]++
		return
	}
	h.coarse = append(h.coarse, ns)
}

func (h *latHist) merge(o *latHist) {
	if o.fine != nil {
		if h.fine == nil {
			h.fine = make([]uint32, fineNanos)
		}
		for i, c := range o.fine {
			h.fine[i] += c
		}
	}
	h.coarse = append(h.coarse, o.coarse...)
	h.n += o.n
}

// pct returns the nearest-rank q-quantile, as samples.pct would for the
// same durations.
func (h *latHist) pct(q float64) (percentile, error) {
	if h.n == 0 {
		return percentile{}, fmt.Errorf("no samples")
	}
	rank := min(max(int(math.Ceil(q*float64(h.n))), 1), h.n)
	cum := 0
	for v, c := range h.fine {
		cum += int(c)
		if cum >= rank {
			return newPercentile(q, int64(v), h.n, h.n-cum)
		}
	}
	slices.Sort(h.coarse)
	v := h.coarse[rank-cum-1]
	return newPercentile(q, v, h.n, h.coarse.beyond(v))
}

// windowLen is the length of the windows a timed phase is cut into.
// Every latency is the median of its per-window values, so bursts of
// interference from the rest of the host in a few windows do not move
// the result.
const windowLen = 500 * time.Millisecond

// window accumulates the operations that completed in one window.
type window struct {
	ops                int64
	point, write, scan latHist
}

// windows are the windows of one phase.
type windows []window

// newWindows cuts a phase of length d into windows (one when d is 0).
func newWindows(d time.Duration) windows { return make(windows, max(1, int(d/windowLen))) }

// at returns the window an operation completing at t belongs to; late
// completions of operations issued before the end fall into the last one.
func (ws windows) at(t time.Duration) *window {
	return &ws[min(max(int(t/windowLen), 0), len(ws)-1)]
}

func (ws windows) merge(o windows) {
	for i := range ws {
		ws[i].ops += o[i].ops
		ws[i].point.merge(&o[i].point)
		ws[i].write.merge(&o[i].write)
		ws[i].scan.merge(&o[i].scan)
	}
}

func (ws windows) ops() int64 {
	var n int64
	for i := range ws {
		n += ws[i].ops
	}
	return n
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs with the same
// method as Python's statistics.quantiles(xs, n=4) (the "exclusive"
// method), so the spread printed by compare matches the acceptance rule.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
