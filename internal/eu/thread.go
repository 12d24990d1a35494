// Package eu models one Execution Unit of the studied GPU (paper §2.2): a
// multi-threaded SIMD core whose hardware threads execute variable-width
// SIMD instructions over multiple cycles on 4-wide FPU and extended-math
// pipes. The package combines a functional interpreter (registers hold
// real values, so branches diverge on real data) with a cycle-level timing
// model: dual issue every two cycles across threads, a per-thread
// dependency scoreboard, multi-cycle execution occupancy shaped by the
// configured intra-warp compaction policy, and SEND instructions routed to
// the memory system.
package eu

import (
	"fmt"

	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
	"intrawarp/internal/regfile"
	"intrawarp/internal/stats"
)

// ThreadState is the scheduling state of a hardware thread.
type ThreadState uint8

// Hardware thread states.
const (
	ThreadIdle    ThreadState = iota // no work assigned
	ThreadReady                      // has a next instruction
	ThreadBarrier                    // waiting at a workgroup barrier
	ThreadDone                       // executed HALT
)

// Payload register layout at thread dispatch (see kbuild for the builder
// helpers that read these).
const (
	PayloadReg = 0 // r0: scalar dispatch info
	IDReg      = 1 // r1..: per-lane global work-item X id (u32)
	IDRegY     = 3 // r3..: per-lane global Y id (2-D launches, SIMD8/16 only)
	ArgBase    = 5 // r5..: kernel scalar arguments, 4 bytes each
	FirstFree  = 8 // first register available to the register allocator
)

// Byte offsets within r0.
const (
	R0GroupID     = 0  // flat workgroup (thread block) index
	R0LocalTID    = 4  // EU-thread index within the workgroup
	R0GroupSize   = 8  // work-items per workgroup
	R0GlobalSize  = 12 // total work-items
	R0SIMDWidth   = 16 // kernel SIMD width
	R0GroupIDX    = 20 // workgroup X index (2-D launches)
	R0GroupIDY    = 24 // workgroup Y index (2-D launches)
	R0GlobalSizeX = 28 // global X extent (2-D launches)
)

type ifFrame struct {
	saved    mask.Mask // active mask before the IF
	elseMask mask.Mask // lanes that take the ELSE branch
}

type loopFrame struct {
	saved  mask.Mask // active mask before the LOOP
	broken mask.Mask // lanes that executed BREAK
	cont   mask.Mask // lanes parked by CONT until the WHILE
	start  int32     // instruction index of the loop body
}

// Thread is one hardware thread context: architectural state plus the
// divergence mask machinery.
type Thread struct {
	ID    int
	State ThreadState
	IP    int32
	Width int

	// prog is the launch's decoded program, shared by all its threads.
	prog *Program

	GRF   regfile.GRF
	Flags [2]uint32

	Dispatch mask.Mask // lanes valid at dispatch
	Active   mask.Mask // current execution mask (⊆ Dispatch)

	ifStack   []ifFrame
	loopStack []loopFrame

	// Workgroup binding.
	Workgroup int
	SLM       *memory.SLM

	// Stats is the per-thread instruction accumulator, merged into the
	// run total when the kernel retires.
	Stats *stats.Run

	// Step scratch, reused across instructions: the result Step returns,
	// SEND address staging, coalesced lines, SLM word offsets, and the
	// sink a null destination writes. ExecResult.Lines and
	// ExecResult.SLMOffsets alias these buffers, so they are valid only
	// until the thread's next Step.
	res     ExecResult
	addrBuf []uint32
	lineBuf []uint32
	slmBuf  []uint32
	sink    [8]byte
}

// Reset prepares the thread for a new dispatch with the given decoded
// program, SIMD width and dispatch mask.
func (t *Thread) Reset(p *Program, width int, dispatch mask.Mask) {
	t.State = ThreadReady
	t.IP = 0
	t.prog = p
	t.Width = width
	t.GRF.Reset()
	t.Flags = [2]uint32{}
	t.Dispatch = dispatch.Trunc(width)
	t.Active = t.Dispatch
	t.ifStack = t.ifStack[:0]
	t.loopStack = t.loopStack[:0]
}

// next returns the decoded instruction at the current IP.
func (t *Thread) next() *decoded {
	return &t.prog.code[t.IP]
}

// predMask returns the lanes enabled by the instruction's predication,
// before intersecting with the active mask.
func (t *Thread) predMask(in *isa.Instruction) mask.Mask {
	switch in.Pred {
	case isa.PredNorm:
		return mask.Mask(t.Flags[in.Flag])
	case isa.PredInv:
		return ^mask.Mask(t.Flags[in.Flag])
	default:
		return ^mask.Mask(0)
	}
}

// ExecMask computes the final execution mask of the instruction at IP: the
// intersection of the dispatch mask, the divergence stack (Active), and
// the instruction predicate, as computed by the decode stage (paper §2.2
// pipeline stage 2).
func (t *Thread) ExecMask(in *isa.Instruction) mask.Mask {
	return (t.Active & t.predMask(in)).Trunc(int(in.Width))
}

// NestingDepth reports the current divergence nesting depth (testing
// hook).
func (t *Thread) NestingDepth() int { return len(t.ifStack) + len(t.loopStack) }

// controlStep applies a control-flow instruction's mask-stack semantics
// and IP update. It returns the execution mask used for timing purposes.
func (t *Thread) controlStep(in *isa.Instruction) mask.Mask {
	em := t.ExecMask(in)
	switch in.Op {
	case isa.OpIf:
		taken := em
		t.ifStack = append(t.ifStack, ifFrame{saved: t.Active, elseMask: t.Active &^ taken})
		t.Active = taken
		if taken == 0 {
			t.IP = in.JumpTarget
			return em
		}
	case isa.OpElse:
		top := &t.ifStack[len(t.ifStack)-1]
		t.Active = top.elseMask
		top.elseMask = 0
		if t.Active == 0 {
			t.IP = in.JumpTarget
			return em
		}
	case isa.OpEndIf:
		top := t.ifStack[len(t.ifStack)-1]
		t.ifStack = t.ifStack[:len(t.ifStack)-1]
		t.Active = top.saved
	case isa.OpLoop:
		t.loopStack = append(t.loopStack, loopFrame{saved: t.Active, start: t.IP + 1})
	case isa.OpBreak:
		top := &t.loopStack[len(t.loopStack)-1]
		top.broken |= em
		t.Active &^= em
		if t.Active == 0 {
			t.IP = in.JumpTarget // the matching WHILE
			return em
		}
	case isa.OpCont:
		top := &t.loopStack[len(t.loopStack)-1]
		top.cont |= em
		t.Active &^= em
		if t.Active == 0 {
			t.IP = in.JumpTarget // the matching WHILE
			return em
		}
	case isa.OpWhile:
		top := &t.loopStack[len(t.loopStack)-1]
		candidates := t.Active | top.cont
		top.cont = 0
		next := candidates & t.predMask(in)
		if next != 0 {
			t.Active = next
			t.IP = in.JumpTarget // loop body start
			return em
		}
		t.Active = top.saved
		t.loopStack = t.loopStack[:len(t.loopStack)-1]
	case isa.OpHalt:
		t.State = ThreadDone
		return em
	default:
		panic(fmt.Sprintf("eu: %s is not a control opcode", in.Op))
	}
	t.IP++
	return em
}
