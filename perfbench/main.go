// Command perfbench is the repository benchmark: three workloads that
// measure the stack end to end, and a traced run that measures it layer
// by layer. Run it through run.sh from the repository root, which builds
// rtled and this command from the tree under test:
//
//	bash perfbench/run.sh --workload avl-scan --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics; see README.md for
// every metric's definition and the layer it belongs to. The command
// exits 1 when a correctness check fails and 2 when the run cannot be
// carried out.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
	Rtled    string // rtled binary built from the tree under test
	Out      string // directory for results, spans and scratch files

	// sabotage breaks every correctness check on purpose; only the
	// benchmark's own tests set it, to prove failures reach error_rate.
	sabotage bool
}

// untracedLen is the length of the untraced phase: the whole run, or its
// first half when the second half is traced.
func (c *runConfig) untracedLen() time.Duration {
	if c.Trace {
		return c.Duration / 2
	}
	return c.Duration
}

const (
	// setupReps in-process and wireSetupReps wire set-ups run per
	// invocation; setup_s is their median.
	setupReps     = 5
	wireSetupReps = 3
)

func main() {
	// An interrupted run prints no result: it stops every rtled it
	// started, waits for them to exit, and fails.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(130)
	}()
	code := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	killChildren()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload: avl-scan, kv-wire, bank-wire, or all")
	seed := fl.Uint64("seed", 1, "workload seed: every input is drawn from it")
	seconds := fl.Float64("seconds", 10, "length of each timed phase")
	trace := fl.Int("trace", 0, "1 runs the traced measurement and reports the per-layer metrics")
	rtled := fl.String("rtled", ".bench_build/bin/rtled", "rtled binary built from the tree under test")
	out := fl.String("out", ".bench_build", "directory for results, spans and scratch files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	code := 0
	for _, name := range names {
		cfg := &runConfig{Workload: name, Seed: *seed, Duration: time.Duration(*seconds * float64(time.Second)),
			Trace: *trace == 1, Rtled: *rtled, Out: *out}
		c := runOne(ctx, cfg, stdout, stderr)
		code = max(code, c)
	}
	return code
}

// runOne runs one workload, prints its metrics and the result line, and
// returns the exit code.
func runOne(ctx context.Context, cfg *runConfig, stdout, stderr io.Writer) int {
	if err := os.MkdirAll(filepath.Join(cfg.Out, "tmp"), 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	o, err := runWorkload(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 2
	}
	line, err := o.report(cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 2
	}
	fp := takeFingerprint(".")
	res := resultFile{Workload: cfg.Workload, Seed: cfg.Seed, Seconds: cfg.Duration.Seconds(), Trace: cfg.Trace,
		Correct: o.correct, Detail: o.detail, Attempted: o.attempted, Failed: o.failed,
		Metrics: line.Metrics, Samples: o.sampleCounts(), Fingerprint: fp}
	resPath := filepath.Join(cfg.Out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", cfg.Workload, cfg.Seed, map[bool]int{false: 0, true: 1}[cfg.Trace]))
	if err := writeJSON(resPath, res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if cfg.Trace {
		spansPath := filepath.Join(cfg.Out, "traces", cfg.Workload+".spans")
		if err := writeSpans(spansPath, o.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		rep := traceReport{Workload: cfg.Workload, Seed: cfg.Seed, Spans: len(o.spans), SpansFile: spansPath,
			Layers: o.layers, Ladder: o.ladder, Before: o.before, After: o.after, Fingerprint: fp}
		if err := writeJSON(filepath.Join(cfg.Out, "traces", cfg.Workload+".json"), rep); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "%s: %d spans written to %s\n", cfg.Workload, len(o.spans), spansPath)
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if !o.correct {
		fmt.Fprintf(stderr, "perfbench: %s: correctness check failed: %s\n", cfg.Workload, o.detail)
		return 1
	}
	return 0
}

func runWorkload(ctx context.Context, cfg *runConfig) (*outcome, error) {
	var o *outcome
	var err error
	switch cfg.Workload {
	case "avl-scan":
		o, err = runAvlScan(cfg)
		if err == nil && cfg.Trace {
			o.ladder, err = runLadder(ctx, cfg)
		}
	case "kv-wire":
		o, err = runWire(ctx, cfg, kvWire)
	case "bank-wire":
		o, err = runWire(ctx, cfg, bankWire)
	default:
		return nil, fmt.Errorf("unknown workload %q (want avl-scan, kv-wire, bank-wire or all)", cfg.Workload)
	}
	return o, err
}

// reading is one end-to-end value with its sample accounting.
type reading struct {
	value     float64
	n, beyond int
}

// outcome is everything one workload invocation measured.
type outcome struct {
	correct           bool
	detail            string
	attempted, failed int64
	e2e               map[string]reading
	layers            map[string]float64
	spans             []span
	ladder            []rung
	before, after     promSeries
}

func newOutcome() *outcome {
	return &outcome{correct: true, e2e: map[string]reading{}, layers: map[string]float64{}}
}

// fail marks the run incorrect; every operation of it then counts as
// failed.
func (o *outcome) fail(err error) {
	if o.correct {
		o.correct, o.detail = false, err.Error()
	}
}

// addWindows sets the throughput of a phase that completed ws.ops()
// operations in elapsed, and its latency metrics, each the median of its
// per-window values. A reading's sample count and count beyond are
// summed over the windows.
func (o *outcome) addWindows(ws windows, elapsed time.Duration) error {
	o.e2e["throughput_ops_s"] = reading{value: float64(ws.ops()) / elapsed.Seconds(), n: int(ws.ops())}
	for _, m := range []struct {
		name string
		pick func(*window) *latHist
		q    float64
	}{
		{"latency_p50_us", func(w *window) *latHist { return &w.point }, 0.50},
		{"latency_p99_us", func(w *window) *latHist { return &w.point }, 0.99},
		{"write_latency_p99_us", func(w *window) *latHist { return &w.write }, 0.99},
		{"scan_latency_p50_us", func(w *window) *latHist { return &w.scan }, 0.50},
	} {
		var r reading
		vals := make([]float64, len(ws))
		for i := range ws {
			p, err := m.pick(&ws[i]).pct(m.q)
			if err != nil {
				return fmt.Errorf("%s, window %d of %d: %w", m.name, i+1, len(ws), err)
			}
			vals[i] = p.Micros
			r.n += p.N
			r.beyond += p.Beyond
		}
		r.value = median(vals)
		o.e2e[m.name] = r
	}
	return nil
}

func (o *outcome) sampleCounts() map[string][2]int {
	out := map[string][2]int{}
	for k, r := range o.e2e {
		out[k] = [2]int{r.n, r.beyond}
	}
	return out
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the command prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultFile is the full record of one invocation, kept for compare.
type resultFile struct {
	Workload    string               `json:"workload"`
	Seed        uint64               `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Trace       bool                 `json:"trace"`
	Correct     bool                 `json:"correct"`
	Detail      string               `json:"detail,omitempty"`
	Attempted   int64                `json:"attempted"`
	Failed      int64                `json:"failed"`
	Metrics     map[string]metricOut `json:"metrics"`
	Samples     map[string][2]int    `json:"samples"` // end-to-end: [samples, samples beyond the value]
	Fingerprint fingerprint          `json:"fingerprint"`
}

// report prints every metric by name with its unit and builds the
// result line: end-to-end metrics untraced, per-layer metrics traced.
func (o *outcome) report(cfg *runConfig, w io.Writer) (resultLine, error) {
	if !o.correct {
		o.failed = o.attempted
	}
	if o.attempted < 1 {
		return resultLine{}, errors.New("no operation was attempted")
	}
	line := resultLine{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	errRate := float64(o.failed) / float64(o.attempted)
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%v correct=%v attempted=%d failed=%d error_rate=%g\n",
		cfg.Workload, cfg.Seed, cfg.Duration.Seconds(), cfg.Trace, o.correct, o.attempted, o.failed, errRate)
	if !o.correct {
		fmt.Fprintf(w, "%s check failed: %s\n", cfg.Workload, o.detail)
	}
	if !cfg.Trace {
		for _, d := range endToEnd {
			r, ok := o.e2e[d.Name]
			if !ok {
				return line, fmt.Errorf("metric %s was not measured", d.Name)
			}
			fmt.Fprintf(w, "  %-24s %14.4f %-6s n=%d", d.Name, r.value, d.Unit, r.n)
			if r.beyond > 0 {
				fmt.Fprintf(w, " beyond=%d", r.beyond)
			}
			fmt.Fprintln(w)
			line.Metrics[d.Name] = metricOut{Value: r.value, Unit: d.Unit}
		}
	} else {
		o.layers["error_rate"] = errRate
		for _, r := range o.ladder {
			o.layers[r.Metric] = r.PerOp
		}
		for _, d := range perLayer {
			if _, ok := o.layers[d.Name]; !ok {
				// A layer this workload does not exercise.
				o.layers[d.Name] = 0
			}
			line.Metrics[d.Name] = metricOut{Value: o.layers[d.Name], Unit: d.Unit}
		}
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %14.4f %-14s moves %s on %s\n", d.Name, o.layers[d.Name], d.Unit, d.Moves, d.On)
		}
	}
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return line, fmt.Errorf("metric %s is not a finite number", name)
		}
	}
	return line, nil
}
