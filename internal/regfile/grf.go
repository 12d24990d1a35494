// Package regfile models the EU general register file (GRF): per-thread
// architectural storage, the three datapath organizations of paper Fig. 5
// (baseline 256-bit registers, BCC half-register access, SCC wide-fetch
// with crossbars), and an analytical area model substituting for the
// paper's CACTI 5.x comparison.
package regfile

import (
	"encoding/binary"
	"fmt"
	"math"
)

// GRF geometry of the studied architecture (paper §2.2).
const (
	NumRegs  = 128 // architectural registers per EU thread
	RegBytes = 32  // 256 bits per register
	// TotalBytes is the full per-thread register file size.
	TotalBytes = NumRegs * RegBytes
)

// GRF is the general register file of one EU thread, stored as a flat byte
// array exactly like the hardware: a SIMD16 32-bit operand starting at
// register r spans registers r and r+1.
type GRF struct {
	data [TotalBytes]byte
}

// Reset zeroes the register file.
func (g *GRF) Reset() { g.data = [TotalBytes]byte{} }

// Bytes returns the register file's backing array. The EU's decoded
// lane loops index it directly; their operand spans are checked against
// TotalBytes once per launch, when the program is decoded.
func (g *GRF) Bytes() []byte { return g.data[:] }

// boundsCheck panics on out-of-file access: the assembler guarantees
// operands fit, so an overrun is a simulator bug, not a kernel error.
func boundsCheck(off, n int) {
	if off < 0 || off+n > TotalBytes {
		panic(fmt.Sprintf("regfile: access [%d,%d) outside GRF", off, off+n))
	}
}

// ReadU32 reads a 32-bit word at an absolute byte offset.
func (g *GRF) ReadU32(off int) uint32 {
	boundsCheck(off, 4)
	return binary.LittleEndian.Uint32(g.data[off:])
}

// WriteU32 writes a 32-bit word at an absolute byte offset.
func (g *GRF) WriteU32(off int, v uint32) {
	boundsCheck(off, 4)
	binary.LittleEndian.PutUint32(g.data[off:], v)
}

// ReadU64 reads a 64-bit word at an absolute byte offset.
func (g *GRF) ReadU64(off int) uint64 {
	boundsCheck(off, 8)
	return binary.LittleEndian.Uint64(g.data[off:])
}

// WriteU64 writes a 64-bit word at an absolute byte offset.
func (g *GRF) WriteU64(off int, v uint64) {
	boundsCheck(off, 8)
	binary.LittleEndian.PutUint64(g.data[off:], v)
}

// ReadU16 reads a 16-bit word at an absolute byte offset.
func (g *GRF) ReadU16(off int) uint16 {
	boundsCheck(off, 2)
	return binary.LittleEndian.Uint16(g.data[off:])
}

// WriteU16 writes a 16-bit word at an absolute byte offset.
func (g *GRF) WriteU16(off int, v uint16) {
	boundsCheck(off, 2)
	binary.LittleEndian.PutUint16(g.data[off:], v)
}

// ReadF32 reads an IEEE float32 at an absolute byte offset.
func (g *GRF) ReadF32(off int) float32 { return math.Float32frombits(g.ReadU32(off)) }

// WriteF32 writes an IEEE float32 at an absolute byte offset.
func (g *GRF) WriteF32(off int, v float32) { g.WriteU32(off, math.Float32bits(v)) }

// ReadBytes copies n bytes starting at off into dst.
func (g *GRF) ReadBytes(off int, dst []byte) {
	boundsCheck(off, len(dst))
	copy(dst, g.data[off:])
}

// WriteBytes copies src into the file starting at off.
func (g *GRF) WriteBytes(off int, src []byte) {
	boundsCheck(off, len(src))
	copy(g.data[off:], src)
}

// Snapshot returns a copy of the register file contents, used by
// functional-equivalence tests.
func (g *GRF) Snapshot() []byte {
	out := make([]byte, TotalBytes)
	copy(out, g.data[:])
	return out
}
