package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64 characters", d.Name)
		}
		if !metricUnit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not valid", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range perLayer {
		if d.Moves == "" || d.On == "" {
			t.Errorf("per-layer metric %s does not say what it should move, and where", d.Name)
		}
	}
	for _, bad := range []string{"", "has space", "slash/name", "é", strings.Repeat("x", 65), "_lead"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONRoundTrip holds BENCHMARK.json and the metric tables
// in step, checks the limits the file must respect, and round-trips it.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	s, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Command, []string{"bash", "perfbench/run.sh"}) || !reflect.DeepEqual(s.Paths, []string{"perfbench"}) {
		t.Errorf("command %v, paths %v", s.Command, s.Paths)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", s.RunSeconds)
	}
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if len(s.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, the benchmark reports %d", len(s.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range s.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, the benchmark reports %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	if b := s.boundOf("setup_s"); b != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", b, maxBound)
	}
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, the benchmark reports %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, the benchmark reports %+v", i, m, d)
		}
	}

	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var back benchSpec
	if err := dec.Decode(&back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, s) {
		t.Errorf("round trip changed the spec:\n%+v\n%+v", back, *s)
	}
}

// TestCompareRefusesOtherHosts: results from hosts with different
// fingerprints are never compared; same-host results are.
func TestCompareRefusesOtherHosts(t *testing.T) {
	write := func(dir string, fp fingerprint, tput float64) {
		t.Helper()
		r := resultFile{Workload: "kv-wire", Seed: 1, Correct: true, Attempted: 1, Fingerprint: fp,
			Metrics: map[string]metricOut{"throughput_ops_s": {Value: tput, Unit: "ops/s"}}}
		if err := writeJSON(dir+"/kv-wire-seed1-trace0.json", r); err != nil {
			t.Fatal(err)
		}
	}
	host := fingerprint{NProc: 2, CPUModel: "cpu", GoVersion: "go1.24.0", GOMAXPROCS: 2}
	other := host
	other.NProc = 8
	a, b, c := t.TempDir(), t.TempDir(), t.TempDir()
	write(a, host, 100)
	write(b, host, 99)
	write(c, other, 99)
	var out, errOut bytes.Buffer
	if code := compare([]string{"-spec", "../BENCHMARK.json", a, b}, &out, &errOut); code != 0 {
		t.Fatalf("same host: exit %d\n%s%s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "throughput_ops_s") {
		t.Errorf("no throughput line:\n%s", out.String())
	}
	out.Reset()
	errOut.Reset()
	if code := compare([]string{"-spec", "../BENCHMARK.json", a, c}, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "different hosts") {
		t.Fatalf("different hosts: exit %d\n%s%s", code, out.String(), errOut.String())
	}
}
