package lang

import (
	"fmt"

	"jrpm/internal/freelist"
	"jrpm/internal/tir"
)

// Compile parses, checks and code-generates a JR source file into a TIR
// program. The result has no annotations yet; run internal/annotate to turn
// potential STLs into traced loops.
//
// Compile is deterministic — the same source always yields a structurally
// identical program — and the returned Program shares no state with other
// compilations. Both properties are load-bearing for the jrpmd artifact
// cache, which addresses compiled programs by a hash of their source and
// serves one Program to many concurrent readers (see tir.Program).
func Compile(src string) (*tir.Program, error) {
	file, err := Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := Check(file)
	if err != nil {
		return nil, err
	}
	prog, err := Gen(checked)
	if err != nil {
		return nil, err
	}
	if err := tir.Validate(prog); err != nil {
		return nil, fmt.Errorf("internal codegen error: %w", err)
	}
	prog.AssignPCs()
	return prog, nil
}

// Gen lowers a checked program to TIR. Each function is generated into
// reused scratch and copied out once at its final size (genFunc).
func Gen(c *Checked) (*tir.Program, error) {
	s := genScratches.Get()
	defer s.release()
	prog := &tir.Program{
		Funcs:     make([]*tir.Function, 0, len(c.Funcs)),
		FuncIndex: map[string]int{},
		Globals:   c.Globals,
		GlobIndex: map[string]int{},
	}
	for i, g := range c.Globals {
		prog.GlobIndex[g.Name] = i
	}
	for i, fm := range c.Funcs {
		prog.FuncIndex[fm.Decl.Name] = i
	}
	for _, fm := range c.Funcs {
		f, err := genFunc(s, prog, c, fm)
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, f)
	}
	return prog, nil
}

// genScratch is Gen's reusable working memory: the blocks of the
// function being generated, whose instruction and target slices keep
// their capacity from one function (and one Gen) to the next, the call
// arguments those instructions point into, and pruneUnreachable's
// tables.
type genScratch struct {
	blocks []tir.Block
	args   []tir.Reg
	reach  []bool
	remap  []int
	stack  []int
}

// genScratches holds idle codegen scratch.
var genScratches freelist.List[genScratch]

// genKeepInstrs bounds the instructions an idle genScratch's blocks may
// hold (about 100 bytes each); scratch grown by an unusually large
// function is left to the collector.
const genKeepInstrs = 1 << 14

// release gives s back to the free list unless it grew past its bound.
func (s *genScratch) release() {
	n, all := 0, s.blocks[:cap(s.blocks)]
	for i := range all {
		n += cap(all[i].Instrs)
	}
	if n <= genKeepInstrs {
		genScratches.Put(s)
	}
}

type fnGen struct {
	s       *genScratch
	prog    *tir.Program
	checked *Checked
	meta    *FuncMeta
	f       *tir.Function
	cur     int
	sealed  bool
	epilog  int
	resReg  tir.Reg
	breaks  []int
	conts   []int
}

// genFunc generates fm's body into s's blocks, drops the unreachable
// ones, and copies the rest out as the function's blocks.
func genFunc(s *genScratch, prog *tir.Program, c *Checked, fm *FuncMeta) (*tir.Function, error) {
	decl := fm.Decl
	f := &tir.Function{
		Name:   decl.Name,
		Params: len(decl.Params),
		Locals: fm.Locals,
		Result: decl.Result.Kind(),
		HasRes: decl.Result != TypeVoid,
	}
	s.blocks, s.args = s.blocks[:0], s.args[:0]
	g := &fnGen{s: s, prog: prog, checked: c, meta: fm, f: f}
	g.newBlock() // entry = b0
	g.epilog = g.newBlockDetached()
	if f.HasRes {
		g.resReg = g.newReg()
	} else {
		g.resReg = tir.NoReg
	}
	if err := g.genBlock(decl.Body); err != nil {
		return nil, err
	}
	if !g.sealed {
		g.br(g.epilog, decl.Line)
	}
	// Epilogue.
	g.cur = g.epilog
	g.sealed = false
	if f.HasRes {
		g.emit(tir.Instr{Op: tir.OpRet, A: g.resReg, HasVal: true, IsF: decl.Result == TypeFloat, Line: decl.Line})
	} else {
		g.emit(tir.Instr{Op: tir.OpRet, Line: decl.Line})
	}
	g.sealed = true
	g.sealDangling(decl.Line)
	f.Blocks = tir.PackBlocks(s.pruneUnreachable())
	return f, nil
}

func (g *fnGen) newReg() tir.Reg {
	r := tir.Reg(g.f.NumRegs)
	g.f.NumRegs++
	return r
}

// newBlock appends a block and makes it current.
func (g *fnGen) newBlock() int {
	g.cur = g.newBlockDetached()
	g.sealed = false
	return g.cur
}

// newBlockDetached appends a block without switching to it. The block
// reuses the slices a block at its index had in an earlier function.
func (g *fnGen) newBlockDetached() int {
	s := g.s
	n := len(s.blocks)
	if n == cap(s.blocks) {
		s.blocks = append(s.blocks, tir.Block{})
	}
	s.blocks = s.blocks[:n+1]
	b := &s.blocks[n]
	b.Instrs, b.Targets = b.Instrs[:0], b.Targets[:0]
	return n
}

func (g *fnGen) use(b int) {
	g.cur = b
	g.sealed = false
}

func (g *fnGen) emit(in tir.Instr) {
	if g.sealed {
		// Statements after break/continue/return land in a fresh,
		// unreachable block so the blocks stay well formed.
		g.newBlock()
	}
	b := &g.s.blocks[g.cur]
	b.Instrs = append(b.Instrs, in)
	if tir.IsTerminator(in.Op) {
		g.sealed = true
	}
}

func (g *fnGen) br(target, line int) {
	g.emit(tir.Instr{Op: tir.OpBr, Line: line})
	b := &g.s.blocks[g.cur]
	b.Targets = append(b.Targets, target)
}

func (g *fnGen) brIf(cond tir.Reg, t, f, line int) {
	g.emit(tir.Instr{Op: tir.OpBrIf, A: cond, Line: line})
	b := &g.s.blocks[g.cur]
	b.Targets = append(b.Targets, t, f)
}

// sealDangling terminates any block codegen left open (all are
// unreachable) so the function validates before pruning.
func (g *fnGen) sealDangling(line int) {
	for bi := range g.s.blocks {
		b := &g.s.blocks[bi]
		if len(b.Instrs) == 0 || !tir.IsTerminator(b.Instrs[len(b.Instrs)-1].Op) {
			b.Instrs = append(b.Instrs, tir.Instr{Op: tir.OpBr, Line: line})
			b.Targets = append(b.Targets, g.epilog)
		}
	}
}

func (g *fnGen) genBlock(b *BlockStmt) error {
	for _, s := range b.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *fnGen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return g.genBlock(st)
	case *VarStmt:
		var r tir.Reg
		var err error
		if st.Init != nil {
			r, err = g.genExpr(st.Init)
			if err != nil {
				return err
			}
		} else {
			r = g.newReg()
			if st.Type == TypeFloat {
				g.emit(tir.Instr{Op: tir.OpConstF, Dst: r, FImm: 0, Line: st.Line})
			} else {
				g.emit(tir.Instr{Op: tir.OpConstI, Dst: r, Imm: 0, Line: st.Line})
			}
		}
		g.emit(tir.Instr{Op: tir.OpStLoc, Slot: st.Slot, A: r, Line: st.Line})
		return nil
	case *AssignStmt:
		return g.genAssign(st)
	case *IfStmt:
		return g.genIf(st)
	case *WhileStmt:
		return g.genWhile(st)
	case *DoWhileStmt:
		return g.genDoWhile(st)
	case *ForStmt:
		return g.genFor(st)
	case *ReturnStmt:
		if st.Val != nil {
			r, err := g.genExpr(st.Val)
			if err != nil {
				return err
			}
			g.emit(tir.Instr{Op: tir.OpMov, Dst: g.resReg, A: r, Line: st.Line})
		}
		g.br(g.epilog, st.Line)
		return nil
	case *BreakStmt:
		g.br(g.breaks[len(g.breaks)-1], st.Line)
		return nil
	case *ContinueStmt:
		g.br(g.conts[len(g.conts)-1], st.Line)
		return nil
	case *PrintStmt:
		r, err := g.genExpr(st.Val)
		if err != nil {
			return err
		}
		g.emit(tir.Instr{Op: tir.OpPrint, A: r, IsF: TypeOf(st.Val) == TypeFloat, Line: st.Line})
		return nil
	case *ExprStmt:
		_, err := g.genExpr(st.X)
		return err
	}
	return fmt.Errorf("unhandled statement %T", s)
}

func (g *fnGen) genAssign(st *AssignStmt) error {
	switch lhs := st.LHS.(type) {
	case *IdentExpr:
		var r tir.Reg
		var err error
		switch st.Op {
		case TokAssign:
			r, err = g.genExpr(st.RHS)
			if err != nil {
				return err
			}
		default:
			old := g.newReg()
			g.emit(tir.Instr{Op: tir.OpLdLoc, Dst: old, Slot: lhs.Slot, Line: st.Line})
			r, err = g.genCompound(st, lhs.T, old)
			if err != nil {
				return err
			}
		}
		g.emit(tir.Instr{Op: tir.OpStLoc, Slot: lhs.Slot, A: r, Line: st.Line})
		return nil
	case *IndexExpr:
		addr, err := g.genAddr(lhs)
		if err != nil {
			return err
		}
		var r tir.Reg
		switch st.Op {
		case TokAssign:
			r, err = g.genExpr(st.RHS)
			if err != nil {
				return err
			}
		default:
			old := g.newReg()
			g.emit(tir.Instr{Op: tir.OpLoad, Dst: old, A: addr, Line: st.Line})
			r, err = g.genCompound(st, lhs.T, old)
			if err != nil {
				return err
			}
		}
		g.emit(tir.Instr{Op: tir.OpStore, A: addr, B: r, Line: st.Line})
		return nil
	}
	return errf(st.Line, "bad assignment target")
}

// genCompound produces the new value for +=, -=, *=, ++ and -- given the
// loaded old value.
func (g *fnGen) genCompound(st *AssignStmt, t Type, old tir.Reg) (tir.Reg, error) {
	var rhs tir.Reg
	if st.Op == TokPlusPlus || st.Op == TokMinusMinus {
		rhs = g.newReg()
		g.emit(tir.Instr{Op: tir.OpConstI, Dst: rhs, Imm: 1, Line: st.Line})
	} else {
		var err error
		rhs, err = g.genExpr(st.RHS)
		if err != nil {
			return 0, err
		}
	}
	var op tir.Op
	switch st.Op {
	case TokPlusEq, TokPlusPlus:
		if t == TypeFloat {
			op = tir.OpFAdd
		} else {
			op = tir.OpAdd
		}
	case TokMinusEq, TokMinusMinus:
		if t == TypeFloat {
			op = tir.OpFSub
		} else {
			op = tir.OpSub
		}
	case TokStarEq:
		if t == TypeFloat {
			op = tir.OpFMul
		} else {
			op = tir.OpMul
		}
	}
	dst := g.newReg()
	g.emit(tir.Instr{Op: op, Dst: dst, A: old, B: rhs, Line: st.Line})
	return dst, nil
}

// genAddr computes the byte address of arr[idx] into a register.
func (g *fnGen) genAddr(x *IndexExpr) (tir.Reg, error) {
	base, err := g.genExpr(x.Arr)
	if err != nil {
		return 0, err
	}
	idx, err := g.genExpr(x.Idx)
	if err != nil {
		return 0, err
	}
	two := g.newReg()
	g.emit(tir.Instr{Op: tir.OpConstI, Dst: two, Imm: 2, Line: x.Line})
	off := g.newReg()
	g.emit(tir.Instr{Op: tir.OpShl, Dst: off, A: idx, B: two, Line: x.Line})
	addr := g.newReg()
	g.emit(tir.Instr{Op: tir.OpAdd, Dst: addr, A: base, B: off, Line: x.Line})
	return addr, nil
}

func (g *fnGen) genIf(st *IfStmt) error {
	cond, err := g.genExpr(st.Cond)
	if err != nil {
		return err
	}
	thenB := g.newBlockDetached()
	endB := g.newBlockDetached()
	elseB := endB
	if st.Else != nil {
		elseB = g.newBlockDetached()
	}
	g.brIf(cond, thenB, elseB, st.Line)
	g.use(thenB)
	if err := g.genBlock(st.Then); err != nil {
		return err
	}
	if !g.sealed {
		g.br(endB, st.Line)
	}
	if st.Else != nil {
		g.use(elseB)
		if err := g.genStmt(st.Else); err != nil {
			return err
		}
		if !g.sealed {
			g.br(endB, st.Line)
		}
	}
	g.use(endB)
	return nil
}

func (g *fnGen) genWhile(st *WhileStmt) error {
	header := g.newBlockDetached()
	body := g.newBlockDetached()
	exit := g.newBlockDetached()
	g.br(header, st.Line)
	g.use(header)
	cond, err := g.genExpr(st.Cond)
	if err != nil {
		return err
	}
	g.brIf(cond, body, exit, st.Line)
	g.breaks = append(g.breaks, exit)
	g.conts = append(g.conts, header)
	g.use(body)
	if err := g.genBlock(st.Body); err != nil {
		return err
	}
	if !g.sealed {
		g.br(header, st.Line)
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	g.use(exit)
	return nil
}

func (g *fnGen) genDoWhile(st *DoWhileStmt) error {
	body := g.newBlockDetached()
	condB := g.newBlockDetached()
	exit := g.newBlockDetached()
	g.br(body, st.Line)
	g.breaks = append(g.breaks, exit)
	g.conts = append(g.conts, condB)
	g.use(body)
	if err := g.genBlock(st.Body); err != nil {
		return err
	}
	if !g.sealed {
		g.br(condB, st.Line)
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	g.use(condB)
	cond, err := g.genExpr(st.Cond)
	if err != nil {
		return err
	}
	g.brIf(cond, body, exit, st.Line)
	g.use(exit)
	return nil
}

func (g *fnGen) genFor(st *ForStmt) error {
	if st.Init != nil {
		if err := g.genStmt(st.Init); err != nil {
			return err
		}
	}
	header := g.newBlockDetached()
	body := g.newBlockDetached()
	post := g.newBlockDetached()
	exit := g.newBlockDetached()
	g.br(header, st.Line)
	g.use(header)
	if st.Cond != nil {
		cond, err := g.genExpr(st.Cond)
		if err != nil {
			return err
		}
		g.brIf(cond, body, exit, st.Line)
	} else {
		g.br(body, st.Line)
	}
	g.breaks = append(g.breaks, exit)
	g.conts = append(g.conts, post)
	g.use(body)
	if err := g.genBlock(st.Body); err != nil {
		return err
	}
	if !g.sealed {
		g.br(post, st.Line)
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	g.use(post)
	if st.Post != nil {
		if err := g.genStmt(st.Post); err != nil {
			return err
		}
	}
	g.br(header, st.Line)
	g.use(exit)
	return nil
}

func (g *fnGen) genExpr(e Expr) (tir.Reg, error) {
	switch x := e.(type) {
	case *IntLit:
		r := g.newReg()
		g.emit(tir.Instr{Op: tir.OpConstI, Dst: r, Imm: x.Val, Line: x.Line})
		return r, nil
	case *FloatLit:
		r := g.newReg()
		g.emit(tir.Instr{Op: tir.OpConstF, Dst: r, FImm: x.Val, Line: x.Line})
		return r, nil
	case *BoolLit:
		r := g.newReg()
		v := int64(0)
		if x.Val {
			v = 1
		}
		g.emit(tir.Instr{Op: tir.OpConstI, Dst: r, Imm: v, Line: x.Line})
		return r, nil
	case *IdentExpr:
		r := g.newReg()
		if x.Global {
			g.emit(tir.Instr{Op: tir.OpLdGlob, Dst: r, Imm: int64(x.GIdx), Line: x.Line})
		} else {
			g.emit(tir.Instr{Op: tir.OpLdLoc, Dst: r, Slot: x.Slot, Line: x.Line})
		}
		return r, nil
	case *IndexExpr:
		addr, err := g.genAddr(x)
		if err != nil {
			return 0, err
		}
		r := g.newReg()
		g.emit(tir.Instr{Op: tir.OpLoad, Dst: r, A: addr, Line: x.Line})
		return r, nil
	case *UnExpr:
		a, err := g.genExpr(x.X)
		if err != nil {
			return 0, err
		}
		r := g.newReg()
		switch {
		case x.Op == TokBang:
			g.emit(tir.Instr{Op: tir.OpNot, Dst: r, A: a, Line: x.Line})
		case x.T == TypeFloat:
			g.emit(tir.Instr{Op: tir.OpFNeg, Dst: r, A: a, Line: x.Line})
		default:
			g.emit(tir.Instr{Op: tir.OpNeg, Dst: r, A: a, Line: x.Line})
		}
		return r, nil
	case *BinExpr:
		return g.genBin(x)
	case *CallExpr:
		return g.genCall(x)
	}
	return 0, fmt.Errorf("unhandled expression %T", e)
}

var intBinOps = map[TokKind]tir.Op{
	TokPlus: tir.OpAdd, TokMinus: tir.OpSub, TokStar: tir.OpMul,
	TokSlash: tir.OpDiv, TokPercent: tir.OpMod,
	TokAmp: tir.OpAnd, TokPipe: tir.OpOr, TokCaret: tir.OpXor,
	TokShl: tir.OpShl, TokShr: tir.OpShr,
	TokEq: tir.OpEq, TokNe: tir.OpNe, TokLt: tir.OpLt,
	TokLe: tir.OpLe, TokGt: tir.OpGt, TokGe: tir.OpGe,
}

var floatBinOps = map[TokKind]tir.Op{
	TokPlus: tir.OpFAdd, TokMinus: tir.OpFSub, TokStar: tir.OpFMul, TokSlash: tir.OpFDiv,
	TokEq: tir.OpFEq, TokNe: tir.OpFNe, TokLt: tir.OpFLt,
	TokLe: tir.OpFLe, TokGt: tir.OpFGt, TokGe: tir.OpFGe,
}

func (g *fnGen) genBin(x *BinExpr) (tir.Reg, error) {
	if x.Op == TokAndAnd || x.Op == TokOrOr {
		return g.genShortCircuit(x)
	}
	a, err := g.genExpr(x.X)
	if err != nil {
		return 0, err
	}
	b, err := g.genExpr(x.Y)
	if err != nil {
		return 0, err
	}
	ops := intBinOps
	if TypeOf(x.X) == TypeFloat {
		ops = floatBinOps
	}
	op, ok := ops[x.Op]
	if !ok {
		return 0, errf(x.Line, "no op for %s on %s", x.Op, TypeOf(x.X))
	}
	r := g.newReg()
	g.emit(tir.Instr{Op: op, Dst: r, A: a, B: b, Line: x.Line})
	return r, nil
}

func (g *fnGen) genShortCircuit(x *BinExpr) (tir.Reg, error) {
	res := g.newReg()
	a, err := g.genExpr(x.X)
	if err != nil {
		return 0, err
	}
	evalY := g.newBlockDetached()
	short := g.newBlockDetached()
	end := g.newBlockDetached()
	if x.Op == TokAndAnd {
		g.brIf(a, evalY, short, x.Line) // false -> short-circuit 0
	} else {
		g.brIf(a, short, evalY, x.Line) // true -> short-circuit 1
	}
	g.use(evalY)
	b, err := g.genExpr(x.Y)
	if err != nil {
		return 0, err
	}
	g.emit(tir.Instr{Op: tir.OpMov, Dst: res, A: b, Line: x.Line})
	g.br(end, x.Line)
	g.use(short)
	v := int64(0)
	if x.Op == TokOrOr {
		v = 1
	}
	g.emit(tir.Instr{Op: tir.OpConstI, Dst: res, Imm: v, Line: x.Line})
	g.br(end, x.Line)
	g.use(end)
	return res, nil
}

func (g *fnGen) genCall(x *CallExpr) (tir.Reg, error) {
	switch x.Builtin {
	case "len":
		a, err := g.genExpr(x.Args[0])
		if err != nil {
			return 0, err
		}
		r := g.newReg()
		g.emit(tir.Instr{Op: tir.OpArrLen, Dst: r, A: a, Line: x.Line})
		return r, nil
	case "int":
		a, err := g.genExpr(x.Args[0])
		if err != nil {
			return 0, err
		}
		r := g.newReg()
		if TypeOf(x.Args[0]) == TypeFloat {
			g.emit(tir.Instr{Op: tir.OpF2I, Dst: r, A: a, Line: x.Line})
		} else {
			g.emit(tir.Instr{Op: tir.OpMov, Dst: r, A: a, Line: x.Line})
		}
		return r, nil
	case "float":
		a, err := g.genExpr(x.Args[0])
		if err != nil {
			return 0, err
		}
		r := g.newReg()
		if TypeOf(x.Args[0]) == TypeInt {
			g.emit(tir.Instr{Op: tir.OpI2F, Dst: r, A: a, Line: x.Line})
		} else {
			g.emit(tir.Instr{Op: tir.OpMov, Dst: r, A: a, Line: x.Line})
		}
		return r, nil
	case "newint", "newfloat":
		a, err := g.genExpr(x.Args[0])
		if err != nil {
			return 0, err
		}
		r := g.newReg()
		g.emit(tir.Instr{Op: tir.OpNewArr, Dst: r, A: a, Line: x.Line})
		return r, nil
	}
	// The argument registers go to the scratch after every argument is
	// generated, so a call nested in an argument cannot interleave its
	// own; PackBlocks copies the window out with the function.
	var buf [8]tir.Reg
	regs := buf[:0]
	for _, a := range x.Args {
		r, err := g.genExpr(a)
		if err != nil {
			return 0, err
		}
		regs = append(regs, r)
	}
	n := len(g.s.args)
	g.s.args = append(g.s.args, regs...)
	args := g.s.args[n:len(g.s.args):len(g.s.args)]
	if args == nil {
		args = []tir.Reg{} // a call's Args is never nil, arguments or not
	}
	dst := tir.NoReg
	if x.T != TypeVoid {
		dst = g.newReg()
	}
	g.emit(tir.Instr{Op: tir.OpCall, Dst: dst, Func: x.FuncIdx, Args: args, Line: x.Line})
	return dst, nil
}

// pruneUnreachable drops the blocks unreachable from the entry and
// renumbers branch targets, in place: the kept blocks move to the front
// in their order, swapped with the dropped ones so that every block's
// slices stay in the scratch for the next function. It returns the kept
// blocks.
func (s *genScratch) pruneUnreachable() []tir.Block {
	blocks := s.blocks
	s.reach = append(s.reach[:0], make([]bool, len(blocks))...)
	s.remap = append(s.remap[:0], make([]int, len(blocks))...)
	reach, remap := s.reach, s.remap
	stack := append(s.stack[:0], 0)
	reach[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range blocks[b].Targets {
			if !reach[t] {
				reach[t] = true
				stack = append(stack, t)
			}
		}
	}
	s.stack = stack
	kept := 0
	for i := range blocks {
		if reach[i] {
			remap[i] = kept
			blocks[kept], blocks[i] = blocks[i], blocks[kept]
			kept++
		}
	}
	for i := range blocks[:kept] {
		for j, t := range blocks[i].Targets {
			blocks[i].Targets[j] = remap[t]
		}
	}
	return blocks[:kept]
}
