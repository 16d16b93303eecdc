package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// rtledBin is built once from the tree this module sits in.
var rtledBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	rtledBin = filepath.Join(dir, "rtled")
	build := exec.Command("go", "build", "-o", rtledBin, "./cmd/rtled")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build rtled: %v\n%s", err, out)
		os.Exit(2)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// smoke runs one workload briefly through runOne and decodes its
// result line.
func smoke(t *testing.T, workload string, trace, sabotage bool) (int, resultLine, string) {
	t.Helper()
	cfg := &runConfig{Workload: workload, Seed: 3, Duration: 2 * time.Second, Trace: trace,
		Rtled: rtledBin, Out: t.TempDir(), sabotage: sabotage}
	var stdout, stderr bytes.Buffer
	code := runOne(context.Background(), cfg, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("%s: last line is not the result (exit %d): %v\n%s\n%s", workload, code, err, stdout.String(), stderr.String())
	}
	return code, line, stdout.String()
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			code, line, out := smoke(t, w, false, false)
			if code != 0 || !line.Correct || line.Failed != 0 || line.Attempted < 1000 {
				t.Fatalf("exit %d, result %+v\n%s", code, line, out)
			}
			for _, d := range endToEnd {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.Name, m, ok, d.Unit)
				}
				if !strings.Contains(out, d.Name) {
					t.Errorf("%s is not printed by name", d.Name)
				}
			}
			if len(line.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want %d", len(line.Metrics), len(endToEnd))
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	code, line, out := smoke(t, "kv-wire", true, false)
	if code != 0 || !line.Correct {
		t.Fatalf("exit %d, result %+v\n%s", code, line, out)
	}
	if len(line.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want the %d per-layer ones", len(line.Metrics), len(perLayer))
	}
	for _, name := range []string{"ladder.htm_run_ns", "ladder.client_rtt_us", "server.service_us_mean", "core.fast_commit_frac"} {
		if !(line.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want it measured", name, line.Metrics[name].Value)
		}
	}
	if !strings.Contains(out, "spans written") {
		t.Errorf("no spans written:\n%s", out)
	}
}

// TestBrokenCheckReachesErrorRate breaks each workload's correctness
// check on purpose: the run must exit 1, report itself incorrect, and
// count every operation as failed.
func TestBrokenCheckReachesErrorRate(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			code, line, out := smoke(t, w, false, true)
			if code != 1 || line.Correct || line.Failed != line.Attempted || line.Attempted == 0 {
				t.Fatalf("exit %d, result correct=%v attempted=%d failed=%d\n%s",
					code, line.Correct, line.Attempted, line.Failed, out)
			}
			if !strings.Contains(out, "error_rate=1") {
				t.Errorf("error_rate is not 1:\n%s", out)
			}
		})
	}
}
