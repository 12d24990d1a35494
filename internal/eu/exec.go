package eu

import (
	"intrawarp/internal/isa"
	"intrawarp/internal/mask"
	"intrawarp/internal/memory"
)

// ExecResult carries everything the timing model needs to know about one
// functionally executed instruction.
//
// Lines and SLMOffsets alias per-thread scratch buffers and are valid only
// until the thread's next Step; a consumer that retains them across steps
// must copy (memory.System.RequestLines copies internally).
type ExecResult struct {
	Instr *isa.Instruction
	Mask  mask.Mask // final execution mask
	Width int
	Group int // lanes retired per execution cycle for this datatype
	Pipe  isa.Pipe

	Lines      []uint32 // coalesced global-memory line addresses (SENDs)
	SLMOffsets []uint32 // per-active-lane SLM word offsets (SLM SENDs)
	IsBarrier  bool
	Done       bool // thread executed HALT
}

// Step functionally executes the instruction at the thread's IP against
// the given backing store and returns the timing-relevant result. The
// caller (the EU timing model or the functional-only driver) is
// responsible for cycle accounting. The result is the thread's own
// scratch: it is valid, like the Lines and SLMOffsets it aliases, only
// until the thread's next Step.
func (t *Thread) Step(mem *memory.Flat) *ExecResult {
	d := t.next()
	res := &t.res
	*res = ExecResult{Instr: d.in, Width: d.width, Group: d.group, Pipe: d.pipe}

	if d.class == classControl {
		res.Mask = t.controlStep(d.in)
		res.Done = t.State == ThreadDone
		t.record(res)
		return res
	}

	em := t.ExecMask(d.in)
	res.Mask = em
	switch d.class {
	case classLanes:
		d.run(t, d, uint32(em), mem)
	case classSend:
		d.run(t, d, uint32(em), mem)
		if d.in.Send.IsSLM() {
			if len(t.slmBuf) > 0 {
				res.SLMOffsets = t.slmBuf
			}
		} else {
			t.lineBuf = memory.CoalesceLinesInto(t.lineBuf, t.addrBuf)
			res.Lines = t.lineBuf
		}
	case classBarrier:
		res.IsBarrier = true
		t.State = ThreadBarrier
		if t.Stats != nil {
			t.Stats.Barriers++
		}
	}
	t.IP++
	t.record(res)
	return res
}

// record feeds the per-thread statistics accumulator.
func (t *Thread) record(res *ExecResult) {
	if t.Stats == nil {
		return
	}
	t.Stats.RecordInstr(res.Width, res.Group, res.Mask)
	if len(res.Lines) > 0 {
		t.Stats.RecordSend(len(res.Lines))
	}
}
