package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// span is one call the benchmark made into a layer, timed from outside:
// an ADT handle operation in process, or one Client.DoInto on the wire.
// Times are nanoseconds since the traced phase began. In a closed loop
// Sched equals Sent; in the open loop Sched is the arrival the generator
// was due to send.
type span struct {
	Sched, Sent, Recv int64
	ReqID             uint32 // wire request id (0 in process)
	Lane              uint16 // worker thread (in process) or connection (wire)
	Op                uint8  // check.Op of a single op; spanScanOp for a scan
	_                 uint8
}

// spanScanOp marks a multi-key read (range count or read batch).
const spanScanOp = 0xff

// spanMagic opens a spans file; the records follow as fixed 32-byte
// little-endian rows in the field order of span.
const spanMagic = "RTLESPANS1\n"

// writeSpans writes the spans of a traced phase to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	_, _ = w.WriteString(spanMagic) // bufio defers the error to Flush
	var row [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(row[0:], uint64(s.Sched))
		binary.LittleEndian.PutUint64(row[8:], uint64(s.Sent))
		binary.LittleEndian.PutUint64(row[16:], uint64(s.Recv))
		binary.LittleEndian.PutUint32(row[24:], s.ReqID)
		binary.LittleEndian.PutUint16(row[28:], s.Lane)
		row[30] = s.Op
		row[31] = 0
		_, _ = w.Write(row[:]) // bufio defers the error to Flush
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// traceReport is the JSON written beside the spans of a traced run: the
// per-layer numbers, the ladder, and the raw counter readings they were
// derived from.
type traceReport struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Spans       int                `json:"spans"`
	SpansFile   string             `json:"spans_file"`
	Layers      map[string]float64 `json:"layers"`
	Ladder      []rung             `json:"ladder"`
	Before      promSeries         `json:"metrics_before,omitempty"`
	After       promSeries         `json:"metrics_after,omitempty"`
	Fingerprint fingerprint        `json:"fingerprint"`
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
