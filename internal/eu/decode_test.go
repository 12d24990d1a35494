package eu

import (
	"errors"
	"strings"
	"testing"

	"intrawarp/internal/asm"
	"intrawarp/internal/isa"
)

// TestDecodeFaults checks that Decode rejects each instruction that
// cannot execute, naming the kernel, the instruction index and the
// faulting operand, and accepts operands that end exactly at the
// register file's last byte.
func TestDecodeFaults(t *testing.T) {
	cases := []struct {
		name    string
		src     string      // assembly; empty when prog is set
		prog    isa.Program // for faults the assembler cannot spell
		index   int         // faulting instruction; -1 when valid
		operand string      // faulting field
		reason  string      // substring of the reason
	}{
		{name: "dst past GRF", src: "mov(16):u32 r127, #0x1\nhalt(16)", operand: "dst", reason: "r127 spans GRF bytes [4064, 4128)"},
		{name: "no lane loop", src: "sin(16):u32 r10, r12\nhalt(16)", operand: "op", reason: "no lane loop for sin.u32"},
		{name: "immediate dst", src: "mov(16):u32 #0x5, r10\nhalt(16)", operand: "dst", reason: "immediate destination"},
		{name: "src past GRF", src: "add(16):u32 r10, r10, r127\nhalt(16)", operand: "src1", reason: "past the 4096-byte register file"},
		{name: "scalar past GRF", src: "mov(1):u32 r10, r127.30<0>\nhalt(1)", operand: "src0", reason: "[4094, 4098)"},
		{name: "second instruction", src: "mov(16):u32 r10, #0x1\nmov(32):f64 r121, r10\nhalt(16)", index: 1, operand: "dst", reason: "[3872, 4128)"},
		{name: "send dst past GRF", src: "send.ld.gather(16):u32 r127, r20\nhalt(16)", operand: "dst", reason: "[4064, 4128)"},
		{name: "f64 div", src: "div(16):f64 r10, r20, r30\nhalt(16)", index: -1},
		{name: "f64 sin", src: "sin(8):f64 r10, r20\nhalt(8)", operand: "op", reason: "no lane loop for sin.f64"},
		{name: "r126 fits", src: "mov(16):u32 r126, #0x1\nhalt(16)", index: -1},
		{name: "scalar at last word", src: "mov(1):u32 r10, r127.28<0>\nhalt(1)", index: -1},
		{name: "send payload is 4 bytes", src: "send.ld.gather(16):f64 r126, r20\nhalt(16)", index: -1},
		{name: "unknown send", prog: isa.Program{{Op: isa.OpSend, Send: isa.SendAtomicMin + 1, Width: isa.SIMD8, DType: isa.U32, Dst: isa.GRF(10), Src0: isa.GRF(20)}},
			operand: "op", reason: "no lane loop for send"},
		{name: "unknown dtype", prog: isa.Program{{Op: isa.OpAdd, Width: isa.SIMD8, DType: isa.U16 + 1, Dst: isa.GRF(10), Src0: isa.GRF(20)}},
			operand: "op", reason: "no lane loop for add.dtype(7)"},
		{name: "unknown condition", prog: isa.Program{{Op: isa.OpCmp, Width: isa.SIMD8, DType: isa.U32, Cond: isa.CmpGE + 1, Src0: isa.GRF(20)}},
			operand: "op", reason: "no lane loop for cmp.cmp(6).u32"},
		{name: "missing flag", prog: isa.Program{{Op: isa.OpSel, Width: isa.SIMD8, DType: isa.U32, Flag: 2, Dst: isa.GRF(10), Src0: isa.GRF(20)}},
			operand: "flag", reason: "flag register f2 does not exist"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog := c.prog
			if c.src != "" {
				var err error
				if prog, err = asm.Assemble(c.src); err != nil {
					t.Fatalf("assemble: %v", err)
				}
			}
			_, err := Decode(&isa.Kernel{Name: "k-" + c.name, Program: prog, Width: isa.SIMD16})
			if c.index < 0 {
				if err != nil {
					t.Fatalf("valid kernel rejected: %v", err)
				}
				return
			}
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("got %v, want a *DecodeError", err)
			}
			if de.Kernel != "k-"+c.name || de.Index != c.index || de.Operand != c.operand || !strings.Contains(de.Reason, c.reason) {
				t.Fatalf("got %+v, want kernel %q, instruction %d, operand %s, reason containing %q",
					*de, "k-"+c.name, c.index, c.operand, c.reason)
			}
			for _, part := range []string{de.Kernel, prog[c.index].String(), c.operand + ":", c.reason} {
				if !strings.Contains(err.Error(), part) {
					t.Errorf("error %q does not name %q", err, part)
				}
			}
		})
	}
}
