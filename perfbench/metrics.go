package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// metricDef declares one metric the benchmark reports. BENCHMARK.json at
// the repository root lists the same names, units and directions; the
// tests hold the two in step. Moves and On record, for a per-layer
// metric, which end-to-end metric it should move and on which workload —
// the prediction a later change is judged against.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Moves  string
	On     string
}

// endToEnd are the metrics a user of the system sees. They come only
// from untraced runs (--trace 0).
var endToEnd = []metricDef{
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher"},
	{Name: "latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "write_latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "scan_latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
}

// perLayer are the metrics of single layers, measured by the traced run
// (--trace 1). A metric whose layer a workload does not exercise reads 0
// there (the server metrics on avl-scan, repl on kv-wire).
var perLayer = []metricDef{
	{"htm.attempts_per_op", "attempts/op", "lower", "throughput_ops_s", "avl-scan"},
	{"htm.abort_frac.conflict", "ratio", "lower", "throughput_ops_s", "avl-scan"},
	{"htm.abort_frac.capacity", "ratio", "lower", "throughput_ops_s", "avl-scan"},
	{"htm.abort_frac.explicit", "ratio", "lower", "latency_p50_us", "avl-scan"},
	{"ladder.htm_run_ns", "ns", "lower", "latency_p50_us", "avl-scan"},

	{"core.fast_commit_frac", "ratio", "higher", "latency_p99_us", "avl-scan"},
	{"core.slow_commit_frac", "ratio", "higher", "latency_p99_us", "avl-scan"},
	{"core.lock_run_frac", "ratio", "lower", "latency_p99_us", "avl-scan"},
	{"core.subscription_aborts_per_kop", "1/kop", "lower", "latency_p99_us", "avl-scan"},
	{"core.lock_hold_frac", "ratio", "lower", "scan_latency_p50_us", "avl-scan"},
	{"ladder.core_atomic_ns", "ns", "lower", "latency_p50_us", "avl-scan"},

	{"ladder.avl_contains_ns", "ns", "lower", "latency_p50_us", "avl-scan"},
	{"ladder.tmap_get_ns", "ns", "lower", "latency_p50_us", "kv-wire"},
	{"ladder.bank_transfer_ns", "ns", "lower", "latency_p50_us", "bank-wire"},

	{"ladder.guard_do_ns", "ns", "lower", "none", "none"},

	{"server.service_us_mean", "us", "lower", "latency_p50_us", "kv-wire"},
	{"server.outside_us_mean", "us", "lower", "latency_p50_us", "kv-wire"},
	{"server.ops_per_section", "ops/section", "higher", "throughput_ops_s", "kv-wire"},
	{"server.affine_run_len_mean", "ops/run", "higher", "throughput_ops_s", "kv-wire"},
	{"server.write_batch_frames_mean", "frames/writev", "higher", "throughput_ops_s", "kv-wire"},
	{"server.cpu_s_per_mop", "s/Mop", "lower", "throughput_ops_s", "kv-wire"},

	{"server.cross_shard_frac", "ratio", "lower", "write_latency_p99_us", "bank-wire"},
	{"server.slow_block_frac", "ratio", "lower", "write_latency_p99_us", "bank-wire"},
	{"server.busy_retries_per_kop", "1/kop", "lower", "error_rate", "bank-wire"},

	{"ladder.client_rtt_us", "us", "lower", "latency_p50_us", "bank-wire"},
	{"client.cpu_s_per_mop", "s/Mop", "lower", "latency_p50_us", "bank-wire"},

	{"repl.entries_per_write", "entries/write", "lower", "write_latency_p99_us", "bank-wire"},
	{"repl.compactions", "count", "lower", "latency_p99_us", "bank-wire"},

	{"loadgen.lag_p99_us", "us", "lower", "validity of the open-loop probe", "bank-wire"},
	{"loadgen.achieved_over_offered", "ratio", "higher", "validity of the open-loop probe", "bank-wire"},

	{"trace.overhead_frac", "ratio", "lower", "none", "every workload"},
	{"error_rate", "ratio", "lower", "error_rate", "every workload"},
}

// metricName is the form every metric name must take.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the form every unit must take.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// benchSpec is the BENCHMARK.json schema.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []specWork    `json:"workloads"`
	EndToEnd   []specMetric  `json:"end_to_end"`
	PerLayer   []specLayered `json:"per_layer"`
}

type specWork struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayered struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// loadSpec reads and decodes BENCHMARK.json, rejecting unknown keys.
func loadSpec(path string) (*benchSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s benchSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	return &s, nil
}

// boundOf returns the regression bound BENCHMARK.json fixes for an
// end-to-end metric, or 0 when the spec does not list it.
func (s *benchSpec) boundOf(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}
