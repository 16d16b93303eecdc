package main

import (
	"rtle/internal/core"
	"rtle/internal/htm"
)

// execCounts are the execution-path counters of the htm and core layers
// over one measured interval: read from core.Stats in process, or from
// rtled's rtle_* series over the wire. Both expose the same fields.
type execCounts struct {
	Ops, FastCommits, SlowCommits, LockRuns float64
	Attempts, SubscriptionAborts            float64
	Aborts                                  [htm.NumReasons]float64
	LockHoldSeconds                         float64
}

func countsFromStats(s *core.Stats) execCounts {
	c := execCounts{
		Ops:                float64(s.Ops),
		FastCommits:        float64(s.FastCommits),
		SlowCommits:        float64(s.SlowCommits),
		LockRuns:           float64(s.LockRuns),
		Attempts:           float64(s.FastAttempts + s.SlowAttempts),
		SubscriptionAborts: float64(s.SubscriptionAborts),
		LockHoldSeconds:    float64(s.LockHoldNanos) / 1e9,
	}
	for i := range c.Aborts {
		c.Aborts[i] = float64(s.FastAborts[i] + s.SlowAborts[i])
	}
	return c
}

func countsFromProm(p promSeries) execCounts {
	c := execCounts{
		Ops:                p.sum("rtle_ops_total"),
		FastCommits:        p.sum("rtle_commits_total", `kind="fast"`),
		SlowCommits:        p.sum("rtle_commits_total", `kind="slow"`),
		LockRuns:           p.sum("rtle_commits_total", `kind="lock"`),
		Attempts:           p.sum("rtle_attempts_total", `path="fast"`) + p.sum("rtle_attempts_total", `path="slow"`),
		SubscriptionAborts: p.sum("rtle_subscription_aborts_total"),
		LockHoldSeconds:    p.sum("rtle_lock_hold_seconds_total"),
	}
	for i := 1; i < htm.NumReasons; i++ {
		c.Aborts[i] = p.sum("rtle_aborts_total", `reason="`+htm.AbortReason(i).String()+`"`)
	}
	return c
}

func (c execCounts) minus(b execCounts) execCounts {
	d := execCounts{
		Ops:                c.Ops - b.Ops,
		FastCommits:        c.FastCommits - b.FastCommits,
		SlowCommits:        c.SlowCommits - b.SlowCommits,
		LockRuns:           c.LockRuns - b.LockRuns,
		Attempts:           c.Attempts - b.Attempts,
		SubscriptionAborts: c.SubscriptionAborts - b.SubscriptionAborts,
		LockHoldSeconds:    c.LockHoldSeconds - b.LockHoldSeconds,
	}
	for i := range d.Aborts {
		d.Aborts[i] = c.Aborts[i] - b.Aborts[i]
	}
	return d
}

// addTo writes the htm and core per-layer metrics. locks is the number of
// fallback locks the interval's time is shared by (one per shard), so
// core.lock_hold_frac is the mean share of time each lock was held.
func (c execCounts) addTo(m map[string]float64, elapsedSeconds float64, locks int) {
	m["htm.attempts_per_op"] = ratio(c.Attempts, c.Ops)
	m["htm.abort_frac.conflict"] = ratio(c.Aborts[htm.Conflict], c.Attempts)
	m["htm.abort_frac.capacity"] = ratio(c.Aborts[htm.Capacity], c.Attempts)
	m["htm.abort_frac.explicit"] = ratio(c.Aborts[htm.Explicit], c.Attempts)
	m["core.fast_commit_frac"] = ratio(c.FastCommits, c.Ops)
	m["core.slow_commit_frac"] = ratio(c.SlowCommits, c.Ops)
	m["core.lock_run_frac"] = ratio(c.LockRuns, c.Ops)
	m["core.subscription_aborts_per_kop"] = 1000 * ratio(c.SubscriptionAborts, c.Ops)
	m["core.lock_hold_frac"] = ratio(c.LockHoldSeconds, elapsedSeconds*float64(locks))
}

// ratio is a/b, or 0 when b is 0 (a layer the interval did not reach).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
