package tir_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"jrpm/internal/annotate"
	"jrpm/internal/lang"
	"jrpm/internal/tir"
)

func makeFunc(blocks []tir.Block) *tir.Program {
	f := &tir.Function{Name: "f", NumRegs: 4, Blocks: blocks}
	return &tir.Program{Funcs: []*tir.Function{f}, FuncIndex: map[string]int{"f": 0}}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	p := makeFunc([]tir.Block{
		{Instrs: []tir.Instr{
			{Op: tir.OpConstI, Dst: 0, Imm: 1},
			{Op: tir.OpBrIf, A: 0},
		}, Targets: []int{1, 1}},
		{Instrs: []tir.Instr{{Op: tir.OpRet}}},
	})
	if err := tir.Validate(p); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		prog *tir.Program
		want string
	}{
		{
			"no terminator",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{{Op: tir.OpConstI, Dst: 0}}}}),
			"does not end in a terminator",
		},
		{
			"terminator mid-block",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{
				{Op: tir.OpRet}, {Op: tir.OpRet},
			}}}),
			"terminator",
		},
		{
			"register out of range",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{
				{Op: tir.OpConstI, Dst: 99},
				{Op: tir.OpRet},
			}}}),
			"out of range",
		},
		{
			"br target count",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{{Op: tir.OpBr}}}}),
			"br needs 1 target",
		},
		{
			"brif target count",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{{Op: tir.OpBrIf, A: 0}}, Targets: []int{0}}}),
			"brif needs 2 targets",
		},
		{
			"target out of range",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{{Op: tir.OpBr}}, Targets: []int{7}}}),
			"target b7 out of range",
		},
		{
			"empty block",
			makeFunc([]tir.Block{{}}),
			"empty block",
		},
		{
			"slot out of range",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{
				{Op: tir.OpLdLoc, Dst: 0, Slot: 5},
				{Op: tir.OpRet},
			}}}),
			"slot s5 out of range",
		},
		{
			"loop id out of range",
			makeFunc([]tir.Block{{Instrs: []tir.Instr{
				{Op: tir.OpSLoop, Loop: 3},
				{Op: tir.OpRet},
			}}}),
			"loop L3 out of range",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := tir.Validate(c.prog)
			if err == nil {
				t.Fatal("invalid program accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestAssignPCsAndFindPC(t *testing.T) {
	prog, err := lang.Compile(`
global a: int[];
func helper(x: int): int { return x * 2; }
func main() {
	var i: int = 0;
	while (i < 4) {
		a[i] = helper(i);
		i++;
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	// PCs must be dense and unique.
	seen := map[int]bool{}
	n := 0
	for _, f := range prog.Funcs {
		for bi := range f.Blocks {
			for ii := range f.Blocks[bi].Instrs {
				pc := f.Blocks[bi].Instrs[ii].PC
				if seen[pc] {
					t.Fatalf("duplicate pc %d", pc)
				}
				seen[pc] = true
				n++
			}
		}
	}
	if n != prog.NumPCs {
		t.Fatalf("NumPCs = %d, counted %d", prog.NumPCs, n)
	}
	// FindPC maps back to the right function.
	fn, line, ok := prog.FindPC(0)
	if !ok || fn == "" || line == 0 {
		t.Fatalf("FindPC(0) = %q/%d/%v", fn, line, ok)
	}
	if _, _, ok := prog.FindPC(1 << 30); ok {
		t.Fatal("FindPC of a bogus pc succeeded")
	}
}

func TestDisasmMentionsEverything(t *testing.T) {
	prog, err := lang.Compile(`
global a: int[];
func main() {
	var i: int = 0;
	var f: float = 1.5;
	while (i < len(a)) {
		a[i] = a[i] + int(f);
		i++;
	}
	print(i);
}`)
	if err != nil {
		t.Fatal(err)
	}
	d := tir.DisasmProgram(prog)
	for _, want := range []string{"func main", "consti", "constf", "ldloc", "stloc", "load", "store", "brif", "ret", "f2i", "print", "arrlen", "ldglob"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[tir.Kind]string{
		tir.KindInt: "int", tir.KindFloat: "float", tir.KindBool: "bool",
		tir.KindIntArr: "int[]", tir.KindFloatArr: "float[]",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind %d = %q, want %q", k, k.String(), s)
		}
	}
}

func TestLookup(t *testing.T) {
	prog, err := lang.Compile(`func main() { } func other() { }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := prog.Lookup("other"); !ok {
		t.Fatal("Lookup(other) failed")
	}
	if _, _, ok := prog.Lookup("missing"); ok {
		t.Fatal("Lookup(missing) succeeded")
	}
}

// TestCloneIsDeep rewrites every slice element and map of a clone, grows
// each of its blocks in place, and annotates it; the original must come
// through unchanged, and no block of the clone may spill into the next.
func TestCloneIsDeep(t *testing.T) {
	const src = `
global a: int[];
global x: float[];
func helper(p: int, q: int): int { return p * 2 + q; }
func main() {
	var i: int = 0;
	var s: int = 0;
	while (i < len(a)) {
		var j: int = 0;
		while (j < 3) {
			s = s + helper(a[i], j);
			j++;
		}
		x[i] = x[i] + 1.5;
		i++;
	}
	print(s);
}`
	compile := func() *tir.Program {
		p, err := lang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := annotate.Apply(p, annotate.Options{}); err != nil { // fill the loop table
			t.Fatal(err)
		}
		return p
	}
	orig, want := compile(), compile()
	before := tir.DisasmProgram(orig)
	c := orig.Clone()
	if !reflect.DeepEqual(c, orig) {
		t.Fatal("clone differs from its original")
	}
	if len(c.Loops) == 0 || len(c.Globals) == 0 {
		t.Fatal("test program has no loops or no globals")
	}

	c.FuncIndex["extra"] = 0
	c.GlobIndex["extra"] = 0
	for i := range c.Globals {
		c.Globals[i].Name += "'"
	}
	for i := range c.Loops {
		l := &c.Loops[i]
		l.Name += "'"
		for k := range l.Blocks {
			l.Blocks[k] = -1
		}
		for k := range l.AnnLocals {
			l.AnnLocals[k] = -1
		}
	}
	calls := 0
	for _, f := range c.Funcs {
		f.Name += "'"
		for k := range f.Locals {
			f.Locals[k].Name += "'"
		}
		for bi := range f.Blocks {
			b := &f.Blocks[bi]
			slices.Reverse(b.Targets)
			for ii := range b.Instrs {
				in := &b.Instrs[ii]
				in.Line, in.PC, in.FImm = -1, -1, in.FImm+1
				if in.Op == tir.OpConstI {
					in.Imm++
				}
				if len(in.Args) > 0 {
					calls++
					slices.Reverse(in.Args)
					in.Args = append(in.Args, tir.NoReg)[:len(in.Args)]
				}
			}
			b.Instrs = append(b.Instrs, tir.Instr{Op: tir.OpNop})[:len(b.Instrs)]
			b.Targets = append(b.Targets, -1)[:len(b.Targets)]
		}
	}
	if calls == 0 {
		t.Fatal("test program has no call arguments")
	}
	for fi, f := range c.Funcs {
		for bi := range f.Blocks {
			got, want := &f.Blocks[bi], &orig.Funcs[fi].Blocks[bi]
			for ii := range got.Instrs {
				if got.Instrs[ii].Op != want.Instrs[ii].Op || len(got.Instrs[ii].Args) != len(want.Instrs[ii].Args) {
					t.Fatalf("%s b%d i%d of the clone was overwritten by a neighbour", f.Name, bi, ii)
				}
			}
			rev := slices.Clone(want.Targets)
			slices.Reverse(rev)
			if !slices.Equal(got.Targets, rev) {
				t.Fatalf("%s b%d targets %v of the clone are not the original's reversed", f.Name, bi, got.Targets)
			}
		}
	}
	if _, err := annotate.Apply(c, annotate.Optimized()); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(orig, want) {
		t.Error("rewriting the clone changed the original")
	}
	if after := tir.DisasmProgram(orig); after != before {
		t.Errorf("original disassembly changed:\n%s\nwant:\n%s", after, before)
	}
}
