package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compare reads the result files of two directories (A, the baseline,
// and B, the candidate), and prints, per workload and end-to-end metric,
// each side's median and quartile spread and B's change against the
// bound BENCHMARK.json fixes. It refuses results from different hosts.
//
//	perfbench compare [-spec BENCHMARK.json] DIR_A DIR_B
func compare(args []string, stdout, stderr io.Writer) int {
	spec := "BENCHMARK.json"
	if len(args) >= 2 && args[0] == "-spec" {
		spec, args = args[1], args[2:]
	}
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-spec BENCHMARK.json] DIR_A DIR_B")
		return 2
	}
	s, err := loadSpec(spec)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	a, errA := readResults(args[0])
	b, errB := readResults(args[1])
	if errA != nil || errB != nil {
		fmt.Fprintln(stderr, "perfbench compare:", errA, errB)
		return 2
	}
	if len(a) == 0 || len(b) == 0 {
		fmt.Fprintln(stderr, "perfbench compare: a directory holds no untraced results")
		return 2
	}
	host := a[0].Fingerprint.hostKey()
	for _, r := range append(a, b...) {
		if k := r.Fingerprint.hostKey(); k != host {
			fmt.Fprintf(stderr, "perfbench compare: refusing to compare results from different hosts:\n  %s\n  %s\n", host, k)
			return 2
		}
	}
	fmt.Fprintf(stdout, "host: %s\n", host)
	worse := false
	for _, w := range workloadNames {
		va, vb := byMetric(a, w), byMetric(b, w)
		if len(va) == 0 || len(vb) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "%s (runs: A %d, B %d)\n", w, countRuns(a, w), countRuns(b, w))
		for _, d := range endToEnd {
			xa, xb := va[d.Name], vb[d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			q1, q3 := quartiles(xa)
			change := (mb - ma) / ma
			if d.Better == "higher" {
				change = -change
			}
			bound := s.boundOf(d.Name)
			verdict := "ok"
			switch {
			case (q3-q1)/ma > bound:
				verdict = "unresolved (A's spread exceeds the bound)"
			case change > bound:
				verdict = "WORSE beyond bound"
				worse = true
			}
			fmt.Fprintf(stdout, "  %-22s A %12.4f  B %12.4f %-6s  A spread %5.1f%%  worse by %6.1f%% (bound %.0f%%)  %s\n",
				d.Name, ma, mb, d.Unit, 100*(q3-q1)/ma, 100*change, 100*bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func readResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []resultFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r resultFile
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Correct {
			out = append(out, r)
		}
	}
	return out, nil
}

func byMetric(rs []resultFile, workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range rs {
		if r.Workload != workload {
			continue
		}
		for k, m := range r.Metrics {
			out[k] = append(out[k], m.Value)
		}
	}
	return out
}

func countRuns(rs []resultFile, workload string) int {
	n := 0
	for _, r := range rs {
		if r.Workload == workload {
			n++
		}
	}
	return n
}
