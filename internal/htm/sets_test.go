package htm

import (
	"slices"
	"testing"
	"testing/quick"

	"rtle/internal/mem"
)

func TestLineSetAddContains(t *testing.T) {
	s := newLineSet(16)
	if s.contains(5) {
		t.Fatal("empty set contains 5")
	}
	if !s.add(5) {
		t.Fatal("first add reported duplicate")
	}
	if s.add(5) {
		t.Fatal("second add reported new")
	}
	if !s.contains(5) || s.len() != 1 {
		t.Fatalf("membership wrong: contains=%v len=%d", s.contains(5), s.len())
	}
}

func TestLineSetZeroLine(t *testing.T) {
	s := newLineSet(16)
	if !s.add(0) {
		t.Fatal("adding line 0 failed")
	}
	if !s.contains(0) {
		t.Fatal("line 0 not found")
	}
}

func TestLineSetResetIsEmpty(t *testing.T) {
	s := newLineSet(16)
	for i := uint64(0); i < 10; i++ {
		s.add(i)
	}
	s.reset()
	if s.len() != 0 {
		t.Fatalf("len after reset = %d", s.len())
	}
	for i := uint64(0); i < 10; i++ {
		if s.contains(i) {
			t.Fatalf("stale member %d visible after reset", i)
		}
	}
}

func TestLineSetManyGenerations(t *testing.T) {
	s := newLineSet(8)
	for gen := 0; gen < 1000; gen++ {
		base := uint64(gen * 100)
		for i := uint64(0); i < 8; i++ {
			if !s.add(base + i) {
				t.Fatalf("gen %d: add %d reported duplicate", gen, base+i)
			}
		}
		if s.len() != 8 {
			t.Fatalf("gen %d: len %d", gen, s.len())
		}
		s.reset()
	}
}

func TestLineSetEpochWrap(t *testing.T) {
	s := newLineSet(4)
	s.epoch = ^uint32(0) - 1 // force a wrap within a few resets
	for gen := 0; gen < 5; gen++ {
		s.add(uint64(gen))
		if !s.contains(uint64(gen)) {
			t.Fatalf("gen %d lost its member across epoch wrap", gen)
		}
		s.reset()
		if s.contains(uint64(gen)) {
			t.Fatalf("gen %d member survived reset across epoch wrap", gen)
		}
	}
}

// collect returns the lines forEach visits, in visiting order.
func collect(s *lineSet) []uint64 {
	var got []uint64
	s.forEach(func(l uint64) bool { got = append(got, l); return true })
	return got
}

func TestLineSetForEach(t *testing.T) {
	s := newLineSet(16)
	want := []uint64{11, 3, 0, 7}
	for _, l := range want {
		s.add(l)
	}
	s.add(3) // a repeat must not be visited twice
	if got := collect(s); !slices.Equal(got, want) {
		t.Fatalf("forEach visited %v, want %v (insertion order, once each)", got, want)
	}
}

func TestLineSetForEachAfterReset(t *testing.T) {
	s := newLineSet(8)
	for l := uint64(0); l < 8; l++ {
		s.add(l)
	}
	s.reset()
	if got := collect(s); len(got) != 0 {
		t.Fatalf("forEach after reset visited %v", got)
	}
	want := []uint64{5, 100, 2}
	for _, l := range want {
		s.add(l)
	}
	if got := collect(s); !slices.Equal(got, want) {
		t.Fatalf("forEach after reset visited %v, want %v", got, want)
	}
}

func TestLineSetForEachAcrossEpochWrap(t *testing.T) {
	s := newLineSet(4)
	s.epoch = ^uint32(0) - 1 // the second reset wraps the epoch
	for gen := uint64(0); gen < 5; gen++ {
		want := []uint64{gen*10 + 2, gen*10 + 1, gen * 10}
		for _, l := range want {
			s.add(l)
		}
		if got := collect(s); !slices.Equal(got, want) {
			t.Fatalf("gen %d (epoch %d): forEach visited %v, want %v", gen, s.epoch, got, want)
		}
		s.reset()
	}
}

func TestLineSetForEachEarlyStop(t *testing.T) {
	s := newLineSet(16)
	for i := uint64(0); i < 10; i++ {
		s.add(i)
	}
	n := 0
	s.forEach(func(uint64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("forEach continued after false: %d visits", n)
	}
	var got []uint64
	s.forEach(func(l uint64) bool { got = append(got, l); return len(got) < 3 })
	if !slices.Equal(got, []uint64{0, 1, 2}) {
		t.Fatalf("forEach stopping at the third line visited %v", got)
	}
}

func TestQuickLineSetMatchesMap(t *testing.T) {
	s := newLineSet(128)
	model := map[uint64]bool{}
	f := func(line uint16, resetNow bool) bool {
		if resetNow {
			s.reset()
			model = map[uint64]bool{}
			return s.len() == 0
		}
		l := uint64(line % 200)
		added := s.add(l)
		wantAdded := !model[l]
		model[l] = true
		return added == wantAdded && s.contains(l) && s.len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMapPutGet(t *testing.T) {
	w := newWriteMap(16)
	if _, ok := w.get(9); ok {
		t.Fatal("empty map returned a value")
	}
	w.put(9, 100)
	if v, ok := w.get(9); !ok || v != 100 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	w.put(9, 200) // overwrite keeps one order entry
	if v, _ := w.get(9); v != 200 {
		t.Fatalf("overwrite lost: %d", v)
	}
	if w.len() != 1 {
		t.Fatalf("len = %d, want 1", w.len())
	}
}

func TestWriteMapOrderPreserved(t *testing.T) {
	w := newWriteMap(16)
	addrs := []mem.Addr{5, 3, 9, 1}
	for i, a := range addrs {
		w.put(a, uint64(i))
	}
	w.put(3, 99) // overwrite must not change order
	var got []mem.Addr
	w.forEachOrdered(func(a mem.Addr, v uint64) { got = append(got, a) })
	for i, a := range addrs {
		if got[i] != a {
			t.Fatalf("order[%d] = %d, want %d", i, got[i], a)
		}
	}
}

func TestWriteMapForEachOrderedLastValue(t *testing.T) {
	w := newWriteMap(16)
	w.put(4, 1)
	w.put(8, 2)
	w.put(4, 3) // the second write to 4 must be the one published
	type kv struct {
		a mem.Addr
		v uint64
	}
	var got []kv
	w.forEachOrdered(func(a mem.Addr, v uint64) { got = append(got, kv{a, v}) })
	want := []kv{{4, 3}, {8, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("forEachOrdered = %v, want %v", got, want)
	}
}

func TestWriteMapReset(t *testing.T) {
	w := newWriteMap(8)
	w.put(1, 10)
	w.reset()
	if w.len() != 0 {
		t.Fatalf("len after reset = %d", w.len())
	}
	if _, ok := w.get(1); ok {
		t.Fatal("stale entry visible after reset")
	}
}

func TestWriteMapEpochWrap(t *testing.T) {
	w := newWriteMap(4)
	w.epoch = ^uint32(0) - 1
	for gen := uint64(0); gen < 5; gen++ {
		w.put(mem.Addr(gen), gen*10)
		if v, ok := w.get(mem.Addr(gen)); !ok || v != gen*10 {
			t.Fatalf("gen %d lost entry across wrap", gen)
		}
		w.reset()
	}
}

func TestQuickWriteMapMatchesMap(t *testing.T) {
	w := newWriteMap(256)
	model := map[mem.Addr]uint64{}
	f := func(addr uint16, val uint64, resetNow bool) bool {
		if resetNow {
			w.reset()
			model = map[mem.Addr]uint64{}
			return w.len() == 0
		}
		a := mem.Addr(addr % 500)
		w.put(a, val)
		model[a] = val
		v, ok := w.get(a)
		return ok && v == val && w.len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestInterleaveEveryYields(t *testing.T) {
	// Functional check: transactions still commit correctly with
	// interleaving enabled.
	m := mem.New(1 << 12)
	a := m.Alloc(1)
	tx := NewTx(m, Config{InterleaveEvery: 1})
	for i := 0; i < 50; i++ {
		if r := tx.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) }); r != None {
			t.Fatalf("abort with interleaving: %v", r)
		}
	}
	if m.Load(a) != 50 {
		t.Fatalf("counter = %d", m.Load(a))
	}
}
