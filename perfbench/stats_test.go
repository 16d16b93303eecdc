package main

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	s := samples{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.1, 10}, {0.5, 50}, {0.51, 60}, {0.99, 100}, {1, 100}, {0.001, 10}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := s.beyond(50); got != 5 {
		t.Errorf("beyond(50) = %d, want 5", got)
	}
	if got := (samples{1, 2, 2, 2, 3}).beyond(2); got != 1 {
		t.Errorf("beyond with ties = %d, want 1", got)
	}
}

func TestP99NeedsTenBeyond(t *testing.T) {
	var h latHist
	for i := 0; i < 999; i++ {
		h.add(int64(i))
	}
	if _, err := h.pct(0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want it refused")
	}
	h.add(999)
	p, err := h.pct(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1000 || p.Beyond != 10 || p.Micros != 0.989 {
		t.Fatalf("p99 of 0..999 ns = %+v, want 0.989 µs with 10 beyond", p)
	}
	if _, err := h.pct(0.5); err != nil {
		t.Fatalf("a median needs no tail: %v", err)
	}
}

// TestLatHistMatchesSorted checks the fixed-memory histogram against the
// plain sorted-slice definition, over durations on both sides of
// fineNanos and with heavy ties.
func TestLatHistMatchesSorted(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var h, a, b latHist
	var all samples
	for i := 0; i < 50000; i++ {
		v := int64(r.ExpFloat64() * 3000)
		if i%10 == 0 {
			v += fineNanos
		}
		all = append(all, v)
		h.add(v)
		if i%2 == 0 {
			a.add(v)
		} else {
			b.add(v)
		}
	}
	a.merge(&b)
	slices.Sort(all)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := all.quantile(q)
		for name, x := range map[string]*latHist{"direct": &h, "merged": &a} {
			p, err := x.pct(q)
			if err != nil {
				t.Fatalf("%s q=%g: %v", name, q, err)
			}
			if got := int64(p.Micros*1e3 + 0.5); got != want || p.Beyond != all.beyond(want) || p.N != len(all) {
				t.Errorf("%s q=%g: got %d (beyond %d), want %d (beyond %d)", name, q, got, p.Beyond, want, all.beyond(want))
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), the rule the benchmark's spread is
// judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data   []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{5, 7}, 4.5, 7.5},
		{[]float64{10.5, 2.25, 7, 7, 1, 100, 3.5}, 2.25, 10.5},
	} {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.data, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestWindowsMedian(t *testing.T) {
	d := 10 * windowLen
	ws := newWindows(d)
	if len(ws) != 10 {
		t.Fatalf("%d windows, want 10", len(ws))
	}
	for i := range ws {
		// One disturbed window, twice as busy and a hundred times slower,
		// must not move the medians.
		n, slow := 1000, int64(0)
		if i == 3 {
			n, slow = 2000, 100000
		}
		for j := 0; j < n; j++ {
			w := ws.at(time.Duration(i)*windowLen + time.Millisecond)
			w.ops++
			w.point.add(int64(1000+j%100) + slow)
			w.write.add(int64(2000 + j%100))
			w.scan.add(int64(5000))
		}
	}
	if ws.at(d+time.Second) != &ws[len(ws)-1] {
		t.Fatal("a late completion must fall into the last window")
	}
	o := newOutcome()
	if err := o.addWindows(ws, d); err != nil {
		t.Fatal(err)
	}
	if got, want := o.e2e["throughput_ops_s"].value, 11000/d.Seconds(); got != want {
		t.Errorf("throughput = %g, want %g", got, want)
	}
	if got := o.e2e["latency_p50_us"].value; got != 1.049 {
		t.Errorf("p50 = %g, want 1.049", got)
	}
}
