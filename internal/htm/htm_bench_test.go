package htm

import (
	"testing"

	"rtle/internal/mem"
)

// Per-access and per-transaction costs of the simulated HTM, the
// "hardware" side of DESIGN.md's cost model. Commit work follows the
// footprint, not the configured capacity. On a 2-vCPU Xeon without RTM
// (go1.24), in ns/op, all at 0 allocs/op:
//
//	TxReadOnly                    31–36
//	TxReadWrite                   83–93   (1 read, 1 write)
//	TxReadWriteWideCapacity       85–94   (same, ReadLines 8192)
//	TxWide                       540–655  (16 line reads, 4 word writes)
//	TxAbortExplicit              220–236

func BenchmarkTxReadOnly(b *testing.B) {
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	m.Store(a, 1)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) { tx.Read(a) })
	}
}

func BenchmarkTxReadWrite(b *testing.B) {
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
	}
}

// BenchmarkTxReadWriteWideCapacity is BenchmarkTxReadWrite under a 16×
// larger read-set capacity: commit cost must follow the footprint, not the
// configured bound.
func BenchmarkTxReadWriteWideCapacity(b *testing.B) {
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	tx := NewTx(m, Config{ReadLines: 8192})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) { tx.Write(a, tx.Read(a)+1) })
	}
}

func BenchmarkTxWide(b *testing.B) {
	// A transaction shaped like an AVL operation: ~16 line reads, 4
	// word writes.
	m := mem.New(1 << 16)
	base := m.AllocLines(16)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) {
			for l := 0; l < 16; l++ {
				tx.Read(base + mem.Addr(l*mem.WordsPerLine))
			}
			for l := 0; l < 4; l++ {
				tx.Write(base+mem.Addr(l*mem.WordsPerLine)+1, uint64(i))
			}
		})
	}
}

func BenchmarkTxAbortExplicit(b *testing.B) {
	// The cost of the panic-based abort path (rollback + unwind).
	m := mem.New(1 << 14)
	a := m.AllocLines(1)
	tx := NewTx(m, Config{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Run(func(tx *Tx) {
			tx.Write(a, 1)
			tx.Abort()
		})
	}
}

func BenchmarkLineSetAddReset(b *testing.B) {
	s := newLineSet(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := uint64(0); l < 16; l++ {
			s.add(uint64(i)*31 + l)
		}
		s.reset()
	}
}

func BenchmarkWriteMapPutReset(b *testing.B) {
	w := newWriteMap(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 8; j++ {
			w.put(mem.Addr(uint64(i)*17+uint64(j)), uint64(j))
		}
		w.reset()
	}
}
