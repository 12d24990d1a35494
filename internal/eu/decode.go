package eu

import (
	"encoding/binary"
	"fmt"

	"intrawarp/internal/isa"
	"intrawarp/internal/regfile"
)

// Program is a kernel program decoded for execution. Decode resolves
// every instruction once per launch: each operand's GRF byte offset and
// lane stride, each immediate masked to the element size, the lane loop
// chosen by opcode and datatype, and the scoreboard spans and flag use
// the timed EU checks before issue. Step then runs one loop over the
// enabled lanes with no per-lane dispatch. Every thread of a launch
// shares one Program; nothing writes it after Decode returns.
type Program struct {
	code []decoded
	slm  bool // some instruction is an SLM SEND
}

// UsesSLM reports whether the program reads or writes shared local
// memory. A workgroup running a program that does not needs no
// scratchpad.
func (p *Program) UsesSLM() bool { return p.slm }

// class selects what Step does with a decoded instruction.
type class uint8

const (
	classNone    class = iota // NOP and FENCE: advance the IP only
	classControl              // mask-stack control flow
	classBarrier              // workgroup barrier
	classLanes                // ALU, CMP and SEL: run the lane loop
	classSend                 // SEND: run the lane loop, then coalesce addresses
)

// operand is one resolved operand. A GRF operand reads or writes the
// thread's register file from byte off, lane i at off+i*stride; a
// scalar has stride 0, so every lane sees lane 0's element. An immediate
// or a null source reads imm (zero for null) with stride 0.
type operand struct {
	grf    bool
	off    int
	stride int
	imm    [8]byte
}

// decoded is one instruction resolved for execution and issue.
type decoded struct {
	in    *isa.Instruction
	class class
	cond  [4]bool // CMP: whether the condition holds, by lt*2+eq
	width int
	group int // lanes the datapath retires per cycle for this datatype
	pipe  isa.Pipe
	run   laneLoop // nil unless class is classLanes or classSend
	op    *laneOp  // the operation an op-call ALU or CMP loop calls per lane

	dst operand
	src [3]operand

	// Scoreboard inputs (EU.depsClear and EU.issue): the GRF spans the
	// sources cover, the destination span a pending write must not
	// overlap (WAW), the span issue reserves until writeback, the flag
	// registers consumed or produced (bit f for flag f), the flag a CMP
	// writes (-1 for none), and the operands fetched per execution cycle.
	reads    [3]span
	nreads   int
	waw      span
	hasWAW   bool
	resv     span
	hasResv  bool
	flags    uint8
	setFlag  int
	fetchOps int
}

// DecodeError reports an instruction that cannot execute: an operand
// span past the register file, an immediate destination, a flag
// register that does not exist, or an operation with no lane loop.
// Decode returns it before any thread runs.
type DecodeError struct {
	Kernel  string
	Index   int    // instruction index in the program
	Instr   string // the instruction's disassembly
	Operand string // "dst", "src0", "src1", "src2", "flag" or "op"
	Reason  string
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("eu: kernel %s: instruction %d (%s): %s: %s", e.Kernel, e.Index, e.Instr, e.Operand, e.Reason)
}

// Decode resolves the kernel's program for execution. It returns a
// *DecodeError naming the first instruction that cannot execute.
func Decode(k *isa.Kernel) (*Program, error) {
	p := &Program{code: make([]decoded, len(k.Program))}
	for i := range k.Program {
		in := &k.Program[i]
		if field, reason := p.code[i].decode(in); reason != "" {
			return nil, &DecodeError{Kernel: k.Name, Index: i, Instr: in.String(), Operand: field, Reason: reason}
		}
		p.slm = p.slm || in.Op == isa.OpSend && in.Send.IsSLM()
	}
	return p, nil
}

var operandNames = [4]string{"dst", "src0", "src1", "src2"}

// decode resolves one instruction. On failure it returns the faulting
// field and the reason.
func (d *decoded) decode(in *isa.Instruction) (field, reason string) {
	d.in = in
	d.width = int(in.Width)
	d.group = in.DType.GroupSize()
	d.pipe = isa.PipeOf(in.Op)
	size := in.DType.Size()
	// SEND payloads (addresses and data) are 32-bit whatever the DType.
	elem := size
	if in.Op == isa.OpSend {
		elem = 4
	}

	if in.Dst.Kind == isa.RegImm {
		return "dst", "immediate destination"
	}
	ops := [4]isa.Operand{in.Dst, in.Src0, in.Src1, in.Src2}
	res := [4]*operand{&d.dst, &d.src[0], &d.src[1], &d.src[2]}
	for j, o := range ops {
		if reason := res[j].resolve(o, d.width, elem); reason != "" {
			return operandNames[j], reason
		}
	}

	for _, o := range ops[1:] {
		if s, ok := operandSpan(o, d.width, elem); ok {
			d.reads[d.nreads] = s
			d.nreads++
		}
	}
	d.waw, d.hasWAW = operandSpan(in.Dst, d.width, size)
	switch {
	case d.pipe != isa.PipeSend:
		d.resv, d.hasResv = d.waw, d.hasWAW
	case in.Op != isa.OpBarrier && in.Send.IsLoad():
		d.resv, d.hasResv = operandSpan(in.Dst, d.width, 4)
	}
	d.setFlag = -1
	if in.Pred != isa.PredNone || in.Op == isa.OpSel || in.Op == isa.OpWhile || in.Op == isa.OpCmp {
		if in.Flag > isa.F1 {
			return "flag", fmt.Sprintf("flag register f%d does not exist", in.Flag)
		}
		d.flags = 1 << in.Flag
		if in.Op == isa.OpCmp {
			d.setFlag = int(in.Flag)
		}
	}
	d.fetchOps = in.NumSources()
	if in.Dst.Kind == isa.RegGRF {
		d.fetchOps++
	}

	switch {
	case isa.IsControl(in.Op):
		d.class = classControl
	case in.Op == isa.OpBarrier:
		d.class = classBarrier
	case in.Op == isa.OpNop || in.Op == isa.OpFence:
		d.class = classNone
	case in.Op == isa.OpSend:
		d.class = classSend
		if int(in.Send) < len(sendLoops) {
			d.run = sendLoops[in.Send]
		}
		if d.run == nil {
			return "op", fmt.Sprintf("no lane loop for send %s (%d)", in.Send, in.Send)
		}
	default:
		d.class = classLanes
		d.run, d.op = laneLoopFor(in)
		if d.run == nil {
			what := fmt.Sprintf("%s.%s", in.Op, in.DType)
			if in.Op == isa.OpCmp {
				what = fmt.Sprintf("cmp.%s.%s", in.Cond, in.DType)
			}
			return "op", "no lane loop for " + what
		}
		if in.Op == isa.OpCmp {
			d.cond = condTable(in.Cond)
		}
	}
	return "", ""
}

// resolve fills r from o for an instruction of the given width and
// element size, checking that a GRF operand's span fits the register
// file.
func (r *operand) resolve(o isa.Operand, width, size int) string {
	switch o.Kind {
	case isa.RegNull:
	case isa.RegImm:
		binary.LittleEndian.PutUint64(r.imm[:], o.Imm&(^uint64(0)>>(64-8*size)))
	case isa.RegGRF, isa.RegScalar:
		r.grf, r.off = true, o.ByteOffset()
		n := size
		if o.Kind == isa.RegGRF {
			r.stride, n = size, width*size
		}
		if r.off+n > regfile.TotalBytes {
			return fmt.Sprintf("%s spans GRF bytes [%d, %d), past the %d-byte register file",
				o, r.off, r.off+n, regfile.TotalBytes)
		}
	default:
		return fmt.Sprintf("unknown operand kind %d", o.Kind)
	}
	return ""
}

// operandSpan returns the GRF byte range an operand covers at the given
// width and element size, and whether it touches the GRF at all.
func operandSpan(o isa.Operand, width, size int) (span, bool) {
	switch o.Kind {
	case isa.RegGRF:
		lo := o.ByteOffset()
		return span{lo, lo + width*size}, true
	case isa.RegScalar:
		lo := o.ByteOffset()
		return span{lo, lo + size}, true
	default:
		return span{}, false
	}
}
