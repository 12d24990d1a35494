// Package trace implements the paper's trace-based methodology (§5.1):
// the functional model is instrumented to record the SIMD execution mask
// of every executed instruction, and an offline analyzer computes the
// BCC/SCC cycle-compaction benefit from the mask stream. Workloads that
// cannot be executed (commercial benchmarks, 3D graphics traces) are
// represented by calibrated synthetic generators in synth.go.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"intrawarp/internal/compaction"
	"intrawarp/internal/mask"
	"intrawarp/internal/stats"
)

// Record is one executed instruction's timing-relevant signature.
type Record struct {
	Width uint8     // SIMD width in lanes
	Group uint8     // lanes retired per execution cycle (datatype dependent)
	Pipe  uint8     // execution pipe (isa.Pipe value)
	Mask  mask.Mask // final execution mask
}

const (
	traceMagic    = 0x54524D4B // "TRMK"
	recordSize    = 8
	formatVersion = 1
)

// Writer streams records to an io.Writer with buffering.
type Writer struct {
	w     *bufio.Writer
	count uint64
}

// NewWriter starts a trace stream.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint32(hdr[4:8], formatVersion)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	var buf [recordSize]byte
	buf[0] = r.Width
	buf[1] = r.Group
	buf[2] = r.Pipe
	binary.LittleEndian.PutUint32(buf[4:8], uint32(r.Mask))
	if _, err := w.w.Write(buf[:]); err != nil {
		return fmt.Errorf("trace: writing record: %w", err)
	}
	w.count++
	return nil
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush drains the buffer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader iterates a trace stream.
type Reader struct {
	r *bufio.Reader
	n int // index of the next record
}

// RecordError reports a trace record no engine writes: a width that is
// not a SIMD width (1, 4, 8, 16 or 32) or a group outside 1–32. Costing
// one would invent a kernel of that width and cycle counts for it.
type RecordError struct {
	Index  int // the record's position in the stream, from 0
	Record Record
	Reason string
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("trace: record %d: %s", e.Index, e.Reason)
}

// check returns the reason rec cannot be costed, or "".
func (rec Record) check() string {
	switch rec.Width {
	case 1, 4, 8, 16, 32:
	default:
		return fmt.Sprintf("width %d is not a SIMD width (1, 4, 8, 16 or 32)", rec.Width)
	}
	if rec.Group < 1 || rec.Group > 32 {
		return fmt.Sprintf("group %d is outside 1-32", rec.Group)
	}
	return ""
}

// NewReader opens a trace stream, validating the header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != traceMagic {
		return nil, fmt.Errorf("trace: bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[4:8]); v != formatVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	return &Reader{r: br}, nil
}

// Next returns the next record, or io.EOF at end of stream. A record
// with a width or group no engine writes is a *RecordError.
func (r *Reader) Next() (Record, error) {
	var buf [recordSize]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, fmt.Errorf("trace: reading record: %w", err)
	}
	rec := Record{
		Width: buf[0],
		Group: buf[1],
		Pipe:  buf[2],
		Mask:  mask.Mask(binary.LittleEndian.Uint32(buf[4:8])),
	}
	if reason := rec.check(); reason != "" {
		return Record{}, &RecordError{Index: r.n, Record: rec, Reason: reason}
	}
	r.n++
	return rec, nil
}

// Source produces records one at a time; Next reports false at end.
type Source interface {
	Next() (Record, bool)
}

// readerSource adapts a Reader to a Source, capturing the first error.
type readerSource struct {
	r   *Reader
	err error
}

// AsSource wraps a Reader; the returned error pointer is set if iteration
// fails with anything but EOF.
func AsSource(r *Reader) (Source, *error) {
	rs := &readerSource{r: r}
	return rs, &rs.err
}

func (rs *readerSource) Next() (Record, bool) {
	rec, err := rs.r.Next()
	if err != nil {
		if err != io.EOF {
			rs.err = err
		}
		return Record{}, false
	}
	return rec, true
}

// SliceSource iterates an in-memory record slice.
type SliceSource struct {
	Records []Record
	pos     int
}

// Next implements Source.
func (s *SliceSource) Next() (Record, bool) {
	if s.pos >= len(s.Records) {
		return Record{}, false
	}
	r := s.Records[s.pos]
	s.pos++
	return r, true
}

// Analyze replays a mask stream through the compaction cost models,
// producing the same per-policy EU-cycle accounting the simulator
// produces for executed kernels: records are counted by signature and
// each distinct one is costed once (stats.Run.Flush), in memory bounded
// however long the stream is.
func Analyze(name string, src Source) *stats.Run {
	run := stats.NewRun(name, 0)
	for {
		rec, ok := src.Next()
		if !ok {
			break
		}
		w := int(rec.Width)
		g := int(rec.Group)
		if g == 0 {
			g = 4
		}
		if run.Width < w {
			run.Width = w
		}
		run.RecordInstr(w, g, rec.Mask)
	}
	run.Flush()
	return run
}

// BenefitSummary holds the headline trace metrics of paper Fig. 10 and
// Table 4's trace rows.
type BenefitSummary struct {
	Name         string
	Instructions int64
	Efficiency   float64
	BCCReduction float64 // EU-cycle reduction vs the IVB baseline
	SCCReduction float64
}

// Summarize condenses a run into the trace benefit metrics.
func Summarize(run *stats.Run) BenefitSummary {
	return BenefitSummary{
		Name:         run.Name,
		Instructions: run.Instructions,
		Efficiency:   run.SIMDEfficiency(),
		BCCReduction: run.EUCycleReduction(compaction.BCC),
		SCCReduction: run.EUCycleReduction(compaction.SCC),
	}
}
