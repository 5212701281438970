package ir

import (
	"strings"
	"testing"
)

const sample = `
func f {
entry:
  a = param 0
  b = const 7
  c = add a b
  br c body exit
body (freq 10):
  d = phi entry:c body:e
  one = const 1
  e = sub d one
  print e
  br e body exit
exit:
  x = phi entry:c body:e
  ret x
}
`

func TestParsePrintRoundTrip(t *testing.T) {
	f := MustParse(sample)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	text := f.String()
	g, err := Parse(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if g.String() != text {
		t.Fatalf("round trip not stable:\n%s\nvs\n%s", text, g.String())
	}
}

func TestParseStructure(t *testing.T) {
	f := MustParse(sample)
	if len(f.Blocks) != 3 {
		t.Fatalf("blocks = %d", len(f.Blocks))
	}
	body := f.Blocks[1]
	if body.Name != "body" || body.Freq != 10 {
		t.Fatalf("body block wrong: %s freq %v", body.Name, body.Freq)
	}
	if len(body.Phis) != 1 || len(body.Preds) != 2 {
		t.Fatal("φ or preds wrong")
	}
	// φ argument order must match pred order.
	phi := body.Phis[0]
	for i, p := range body.Preds {
		arg := f.VarName(phi.Uses[i])
		if p.Name == "entry" && arg != "c" {
			t.Fatalf("arg for entry = %s", arg)
		}
		if p.Name == "body" && arg != "e" {
			t.Fatalf("arg for body = %s", arg)
		}
	}
	if f.NumParams != 1 {
		t.Fatalf("NumParams = %d", f.NumParams)
	}
}

// parseErrorCases holds one row for every error Parse and ParseAll can
// return, with its exact message. all selects ParseAll.
var parseErrorCases = []struct {
	name string
	all  bool
	src  string
	want string
}{
	{"no function", false, "// only a comment\n\n", "no function found"},
	{"no blocks", false, "func f {\n}", `function "f" has no blocks`},
	{"undefined targets", false, "func f {\nentry:\n  c = param 0\n  br c zz aa\n}",
		"undefined block target(s): aa, zz"},
	{"second header", false, "func f {\nentry:\n  ret\n}\nfunc g {\n",
		`line 5: second "func" inside function body (use ParseAll for streams)`},
	{"label before header", false, "entry:\nfunc f {\n", "line 1: label before func header"},
	{"bad annotation", false, "func f {\nentry (frq 2):\n  ret\n}", `line 2: bad block annotation "frq 2"`},
	{"bad freq", false, "func f {\nentry (freq x):\n  ret\n}",
		`line 2: bad freq: strconv.ParseFloat: parsing "x": invalid syntax`},
	{"negative freq", false, "func f {\nentry (freq -1):\n  ret\n}", "line 2: freq -1 out of range"},
	{"NaN freq", false, "func f {\nentry (freq NaN):\n  ret\n}", "line 2: freq NaN out of range"},
	{"empty label", false, "func f {\n (freq 2):\n  ret\n}", "line 2: empty block label"},
	{"duplicate label", false, "func f {\nentry:\n  jump entry\nentry:\n  ret\n}", `line 4: duplicate label "entry"`},
	{"instruction outside block", false, "func f {\n  x = const 1\n}",
		`line 2: instruction outside block: "x = const 1"`},
	{"empty instruction", false, "func f {\nentry:\n  x =\n}", "line 3: empty instruction"},
	{"unknown op", false, "func f {\nentry:\n  x = bogus y\n}", `line 3: unknown op "bogus"`},
	{"missing destination", false, "func f {\nentry:\n  const 1\n}",
		`line 3: op "const" needs a destination (dst = const ...)`},
	{"arity", false, "func f {\nentry:\n  x = add y\n}", `line 3: op "add" wants 2 operand(s), got 1`},
	{"nop arity", false, "func f {\nentry:\n  nop x\n}", `line 3: op "nop" wants 0 operand(s), got 1`},
	{"ret arity", false, "func f {\nentry:\n  ret x y\n}", `line 3: op "ret" wants at most 1 operand, got 2`},
	{"bad const", false, "func f {\nentry:\n  x = const 0x10\n}",
		`line 3: strconv.ParseInt: parsing "0x10": invalid syntax`},
	{"const out of range", false, "func f {\nentry:\n  x = const 99999999999999999999\n}",
		`line 3: strconv.ParseInt: parsing "99999999999999999999": value out of range`},
	{"bad param", false, "func f {\nentry:\n  x = param one\n}",
		`line 3: strconv.Atoi: parsing "one": invalid syntax`},
	{"param out of range", false, "func f {\nentry:\n  x = param 65536\n}",
		"line 3: param index 65536 out of range [0, 65535]"},
	{"bad parcopy operand", false, "func f {\nentry:\n  parcopy xy\n}", `line 3: bad parcopy operand "xy"`},
	{"bad phi operand", false, "func f {\nentry:\n  x = phi y\n  ret\n}", `line 3: bad phi operand "y"`},
	{"unknown phi predecessor", false, "func f {\nentry:\n  x = phi nosuch:y\n}",
		`line 3: unknown phi predecessor "nosuch"`},
	{"phi argument from a non-predecessor", false,
		"func f {\nentry:\n  jump b\nb:\n  x = phi b:y\n  ret\n}", "line 5: block b is not a predecessor of b"},
	{"phi missing argument", false, "func f {\nentry:\n  jump b\nb:\n  x = phi\n  ret\n}",
		"line 5: phi in b missing argument for predecessor entry"},
	{"no functions in stream", true, "\n// nothing\n", "ir: no functions found"},
	{"error in a later function", true, "func f {\nentry:\n  ret\n}\nfunc g {\nentry:\n  jump gone\n}",
		"undefined block target(s): gone"},
	{"line numbers restart per function", true, "func f {\nentry:\n  ret\n}\nfunc g {\nentry:\n  x = bogus\n}",
		`line 3: unknown op "bogus"`},
	// Before the first header, a stream may hold only blank and comment
	// lines; anything else is rejected rather than dropped.
	{"mistyped first header", true, "fun f {\nentry:\n  ret\n}\nfunc g {\nentry:\n  ret\n}",
		`line 1: instruction outside block: "fun f {"`},
	{"instruction before first header", true, "// lead\n  x = const 1\nfunc g {\nentry:\n  ret\n}",
		`line 2: instruction outside block: "x = const 1"`},
	{"brace before header", false, "}\nfunc f {\nentry:\n  ret\n}", `line 1: "}" before func header`},
}

func TestParseErrors(t *testing.T) {
	for _, tc := range parseErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			if tc.all {
				_, err = ParseAll(tc.src)
			} else {
				_, err = Parse(tc.src)
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("error = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestVerifyCatchesBrokenCFG(t *testing.T) {
	f := MustParse(sample)
	f.Blocks[0].Succs = f.Blocks[0].Succs[:1] // drop an edge one-sidedly
	if err := Verify(f); err == nil {
		t.Fatal("asymmetric edge not detected")
	}

	f = MustParse(sample)
	f.Blocks[2].Instrs = nil // remove terminator
	if err := Verify(f); err == nil {
		t.Fatal("missing terminator not detected")
	}

	f = MustParse(sample)
	f.Blocks[1].Phis[0].Uses = f.Blocks[1].Phis[0].Uses[:1]
	if err := Verify(f); err == nil {
		t.Fatal("φ arity mismatch not detected")
	}

	f = MustParse(sample)
	f.Blocks[0].Instrs = append(f.Blocks[0].Instrs, &Instr{Op: OpRet})
	if err := Verify(f); err == nil {
		t.Fatal("trailing instruction after terminator not detected")
	}
}

// TestVerifyRejectsMalformedPhis: φ operands are range-checked like body
// operands, and a φ must have exactly one destination.
func TestVerifyRejectsMalformedPhis(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(f *Func, phi *Instr)
		want    string
	}{
		{"NoVar argument", func(f *Func, phi *Instr) { phi.Uses[0] = NoVar }, "use of unknown variable -1"},
		{"argument out of range", func(f *Func, phi *Instr) { phi.Uses[1] = VarID(len(f.Vars)) }, "use of unknown variable"},
		{"destination out of range", func(f *Func, phi *Instr) { phi.Defs[0] = VarID(len(f.Vars)) }, "def of unknown variable"},
		{"no destination", func(f *Func, phi *Instr) { phi.Defs = nil }, "phi has 0 defs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := MustParse(sample)
			tc.corrupt(f, f.Blocks[1].Phis[0])
			err := Verify(f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestVerifyRejectsEntryPhi: a φ in the entry block has no incoming edge
// to select an argument on the first entry — with no predecessor, or with
// only a back edge — so Verify refuses it, and with it DecodeBinary.
func TestVerifyRejectsEntryPhi(t *testing.T) {
	for name, src := range map[string]string{
		"no predecessor": `
func h {
b0:
  i = phi
  print i
  ret i
}`,
		"back edge": `
func h {
b0:
  i = phi b1:j
  br i b1 b2
b1:
  one = const 1
  j = sub i one
  jump b0
b2:
  ret i
}`,
	} {
		t.Run(name, func(t *testing.T) {
			f := MustParse(src)
			const want = "block b0: φ in entry block"
			if err := Verify(f); err == nil || err.Error() != want {
				t.Fatalf("Verify = %v, want %q", err, want)
			}
			if _, err := DecodeBinary(AppendBinary(nil, f)); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("DecodeBinary = %v, want an error containing %q", err, want)
			}
		})
	}
}

func TestDefUse(t *testing.T) {
	f := MustParse(sample)
	du := NewDefUse(f)
	c := findVar(f, "c")
	if du.DefBlock(c) != 0 {
		t.Fatalf("def block of c = %d", du.DefBlock(c))
	}
	uses := du.Uses(c)
	// c: branch use in entry, φ use (entry edge) ×2 for body and exit φs.
	var phiUses, branchUses int
	for _, u := range uses {
		if u.Slot == PhiUseSlot {
			if u.Block != 0 {
				t.Fatalf("φ use of c attributed to block %d", u.Block)
			}
			phiUses++
		} else {
			branchUses++
		}
	}
	if phiUses != 2 || branchUses != 1 {
		t.Fatalf("c uses: %d φ, %d direct", phiUses, branchUses)
	}

	e := findVar(f, "e")
	if du.DefSlot(e) <= 0 {
		t.Fatal("e defined in body at a positive slot")
	}
	d := findVar(f, "d")
	if du.DefSlot(d) != 0 {
		t.Fatal("φ defs live at slot 0")
	}
}

func TestDefUseRejectsDoubleDef(t *testing.T) {
	src := "func f {\nentry:\n  x = const 1\n  x = const 2\n  ret x\n}"
	f := MustParse(src)
	defer func() {
		if recover() == nil {
			t.Fatal("double definition must panic")
		}
	}()
	NewDefUse(f)
}

// TestDefUseRebuildDropsOldInstrs: an index rebuilt in place for a small
// function after a large one matches a fresh index and keeps none of the
// large function's instructions reachable from the reused arrays.
func TestDefUseRebuildDropsOldInstrs(t *testing.T) {
	large := MustParse(sample)
	for i := 0; i < 40; i++ {
		in := &Instr{Op: OpConst, Defs: []VarID{large.NewVar("")}}
		large.Blocks[0].Instrs = append([]*Instr{in}, large.Blocks[0].Instrs...)
		large.Blocks[2].Instrs = append([]*Instr{{Op: OpPrint, Uses: []VarID{in.Defs[0]}}}, large.Blocks[2].Instrs...)
	}
	small := MustParse("func s {\nentry:\n  x = param 0\n  ret x\n}")
	du := NewDefUse(large)
	du.Rebuild(small)
	want := NewDefUse(small)
	for v := range small.Vars {
		vid := VarID(v)
		if du.DefBlock(vid) != want.DefBlock(vid) || du.DefInstr(vid) != want.DefInstr(vid) ||
			len(du.Uses(vid)) != len(want.Uses(vid)) {
			t.Fatalf("rebuilt entry of %s differs from a fresh index", small.VarName(vid))
		}
	}
	for _, in := range du.defInstr[len(small.Vars):cap(du.defInstr)] {
		if in != nil {
			t.Fatal("reused definition array still holds an instruction of the previous function")
		}
	}
	for _, us := range du.uses[len(small.Vars):cap(du.uses)] {
		if us != nil {
			t.Fatal("reused use-list array still holds a list of the previous function")
		}
	}
	for _, u := range du.backing[len(du.backing):cap(du.backing)] {
		if u.Instr != nil {
			t.Fatal("reused use backing still holds an instruction of the previous function")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	f := MustParse(sample)
	g := Clone(f)
	if g.String() != f.String() {
		t.Fatal("clone must print identically")
	}
	g.Blocks[0].Instrs[0].Aux = 99
	g.Blocks[1].Phis[0].Uses[0] = 0
	g.Vars[0].Name = "zzz"
	if g.String() == f.String() {
		t.Fatal("mutating the clone must not affect the original")
	}
	for i, b := range g.Blocks {
		for j, p := range b.Preds {
			if p == f.Blocks[i].Preds[j] {
				t.Fatal("clone shares block pointers")
			}
		}
	}
}

func TestSplitEdge(t *testing.T) {
	f := MustParse(sample)
	entry, body := f.Blocks[0], f.Blocks[1]
	if !IsCriticalEdge(entry, body) {
		t.Fatal("entry→body is critical (2 succs, 2 preds)")
	}
	nb := SplitEdge(f, entry, body)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	if body.PredIndex(nb) != 0 {
		t.Fatal("new block must take over the pred slot")
	}
	if len(nb.Preds) != 1 || nb.Preds[0] != entry || len(nb.Succs) != 1 || nb.Succs[0] != body {
		t.Fatal("split block edges wrong")
	}
	// φ argument positions must be preserved.
	if f.VarName(body.Phis[0].Uses[0]) != "c" {
		t.Fatal("φ argument lost by split")
	}
}

func TestCopyInsertIndexBeforeTerminator(t *testing.T) {
	f := MustParse(sample)
	b := f.Blocks[1]
	idx := CopyInsertIndex(b)
	if b.Instrs[idx].Op != OpBranch {
		t.Fatal("copies must be inserted right before the terminator")
	}
}

func TestBrDecProperties(t *testing.T) {
	if !OpBrDec.DefinesAfterCopyPoint() || OpBranch.DefinesAfterCopyPoint() {
		t.Fatal("only Br_dec defines after the copy point")
	}
	if !OpBrDec.IsTerminator() || OpPhi.IsTerminator() {
		t.Fatal("terminator classification wrong")
	}
}

func TestIsCopyOf(t *testing.T) {
	in := &Instr{Op: OpParCopy, Defs: []VarID{1, 2}, Uses: []VarID{3, 4}}
	if !in.IsCopyOf(1, 3) || !in.IsCopyOf(2, 4) || in.IsCopyOf(1, 4) {
		t.Fatal("parallel copy pair detection wrong")
	}
	cp := &Instr{Op: OpCopy, Defs: []VarID{1}, Uses: []VarID{2}}
	if !cp.IsCopyOf(1, 2) || cp.IsCopyOf(2, 1) {
		t.Fatal("plain copy detection wrong")
	}
}

func findVar(f *Func, name string) VarID {
	for i, v := range f.Vars {
		if v.Name == name {
			return VarID(i)
		}
	}
	panic("no var " + name)
}

func TestPrintContainsFreq(t *testing.T) {
	f := MustParse(sample)
	if !strings.Contains(f.String(), "body (freq 10):") {
		t.Fatalf("frequency lost in printing:\n%s", f.String())
	}
}

func TestCleanupJumpBlocks(t *testing.T) {
	f := MustParse(sample)
	entry, body := f.Blocks[0], f.Blocks[1]
	nb := SplitEdge(f, entry, body)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	// The split block is jump-only: cleanup must fold it away again.
	removed := CleanupJumpBlocks(f)
	if removed != 1 {
		t.Fatalf("removed %d blocks, want 1", removed)
	}
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		if b == nb {
			t.Fatal("split block still present")
		}
	}
	// φ arguments and pred order must be intact.
	if f.VarName(body.Phis[0].Uses[body.PredIndex(entry)]) != "c" {
		t.Fatal("φ argument lost by cleanup")
	}
}

func TestCleanupKeepsNeededSplits(t *testing.T) {
	// Duplicate-pred hazard: both branch targets reach j through jump-only
	// blocks; folding both would give j duplicate predecessors, so at most
	// one may be removed.
	src := `
func k {
entry:
  p = param 0
  a = const 1
  b = const 2
  br p l r
l:
  jump j
r:
  jump j
j:
  x = phi l:a r:b
  ret x
}
`
	f := MustParse(src)
	CleanupJumpBlocks(f)
	if err := Verify(f); err != nil {
		t.Fatal(err)
	}
	j := f.Blocks[len(f.Blocks)-1]
	seen := map[*Block]bool{}
	for _, p := range j.Preds {
		if seen[p] {
			t.Fatal("cleanup created duplicate predecessors")
		}
		seen[p] = true
	}
}

func TestParseAll(t *testing.T) {
	src := sample + "\n" + strings.ReplaceAll(sample, "func f", "func g")
	funcs, err := ParseAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 2 || funcs[0].Name != "f" || funcs[1].Name != "g" {
		t.Fatalf("ParseAll wrong: %d funcs", len(funcs))
	}
	if _, err := ParseAll("   \n"); err == nil {
		t.Fatal("empty input must error")
	}
}
