package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"jrpm/internal/freelist"
	"jrpm/internal/tir"
)

// ProgramHash computes a structural SHA-256 of a compiled program:
// every instruction field that affects execution or event emission, the
// block graph, the globals, and the loop table. Two programs hash equal
// iff they publish identical event streams on identical inputs, so the
// hash in a trace header pins the exact artifact a recording belongs to.
//
// The hashed stream is strings as raw bytes, ints as signed varints and
// 64-bit immediates as little-endian words. It is appended into one
// buffer, reused from call to call, and hashed in one sha256.Sum256.
func ProgramHash(p *tir.Program) [32]byte {
	hb := hashBufs.Get()
	b := append(hb.b[:0], "jrpm-trace-prog-v1\x00"...)
	b = appendInts(b, len(p.Funcs))
	for _, f := range p.Funcs {
		b = append(b, f.Name...)
		b = appendInts(b, f.Params, len(f.Locals), f.NumRegs, len(f.Blocks))
		for _, l := range f.Locals {
			b = append(b, l.Name...)
			b = appendInts(b, int(l.Kind), b2i(l.Param))
		}
		for bi := range f.Blocks {
			blk := &f.Blocks[bi]
			b = appendInts(b, len(blk.Instrs), len(blk.Targets))
			b = appendInts(b, blk.Targets...)
			for ii := range blk.Instrs {
				in := &blk.Instrs[ii]
				b = appendInts(b, int(in.Op), int(in.Dst), int(in.A), int(in.B),
					in.Slot, in.Func, in.Loop, b2i(in.HasVal), b2i(in.IsF), len(in.Args))
				b = binary.LittleEndian.AppendUint64(b, uint64(in.Imm))
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(in.FImm))
				for _, a := range in.Args {
					b = binary.AppendVarint(b, int64(a))
				}
			}
		}
	}
	b = appendInts(b, len(p.Globals))
	for _, g := range p.Globals {
		b = append(b, g.Name...)
		b = appendInts(b, int(g.Kind))
	}
	b = appendInts(b, len(p.Loops))
	for i := range p.Loops {
		l := &p.Loops[i]
		b = append(b, l.Name...)
		b = appendInts(b, l.ID, l.Func, l.Header, l.NumLocals, b2i(l.Candidate), len(l.AnnLocals))
		b = appendInts(b, l.AnnLocals...)
	}
	sum := sha256.Sum256(b)
	if cap(b) <= hashKeepBytes {
		hb.b = b
		hashBufs.Put(hb)
	}
	return sum
}

// hashBuf is ProgramHash's reusable stream buffer.
type hashBuf struct{ b []byte }

// hashBufs holds idle ProgramHash buffers.
var hashBufs freelist.List[hashBuf]

// hashKeepBytes bounds the buffer an idle hashBuf may keep; one grown by
// an unusually large program is left to the collector. A default-corpus
// program streams about 4.5 KB.
const hashKeepBytes = 1 << 20

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
