package ir

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

const codecSrc = `
func diamond {
entry:
  p = param 0
  c0 = const 10
  c = cmplt p c0
  br c left right
left (freq 4):
  a = add p c0
  jump join
right:
  b = sub p c0
  jump join
join:
  x = phi left:a right:b
  print x
  ret x
}
`

// codecFunc parses codecSrc and adds the fields Parse never produces: a
// derived variable and a register pin.
func codecFunc() *Func {
	f := MustParse(codecSrc)
	d := f.NewDerivedVar(VarID(0))
	f.Vars[d].Reg = "r7"
	return f
}

// funcDiff describes the first difference between a and b, field by field:
// name, parameter count, every variable's record (name, register pin,
// derivation base), and every block's name, frequency, predecessor and
// successor order, φs and instructions. It returns "" when they match.
func funcDiff(a, b *Func) string {
	if a.Name != b.Name || a.NumParams != b.NumParams {
		return fmt.Sprintf("header %q/%d vs %q/%d", a.Name, a.NumParams, b.Name, b.NumParams)
	}
	if len(a.Vars) != len(b.Vars) {
		return fmt.Sprintf("%d vars vs %d", len(a.Vars), len(b.Vars))
	}
	for i := range a.Vars {
		if *a.Vars[i] != *b.Vars[i] {
			return fmt.Sprintf("var %d: %+v vs %+v", i, *a.Vars[i], *b.Vars[i])
		}
	}
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Sprintf("%d blocks vs %d", len(a.Blocks), len(b.Blocks))
	}
	ids := func(bs []*Block) []int {
		out := make([]int, len(bs))
		for i, b := range bs {
			out[i] = b.ID
		}
		return out
	}
	instrs := func(x, y []*Instr) string {
		if len(x) != len(y) {
			return fmt.Sprintf("%d instructions vs %d", len(x), len(y))
		}
		for i := range x {
			if x[i].Op != y[i].Op || x[i].Aux != y[i].Aux ||
				!slices.Equal(x[i].Defs, y[i].Defs) || !slices.Equal(x[i].Uses, y[i].Uses) {
				return fmt.Sprintf("instruction %d: %+v vs %+v", i, *x[i], *y[i])
			}
		}
		return ""
	}
	for i := range a.Blocks {
		ba, bb := a.Blocks[i], b.Blocks[i]
		switch {
		case ba.ID != bb.ID || ba.Name != bb.Name || math.Float64bits(ba.Freq) != math.Float64bits(bb.Freq):
			return fmt.Sprintf("block %d: %d %q freq %v vs %d %q freq %v", i, ba.ID, ba.Name, ba.Freq, bb.ID, bb.Name, bb.Freq)
		case !slices.Equal(ids(ba.Preds), ids(bb.Preds)):
			return fmt.Sprintf("block %s preds %v vs %v", ba.Name, ids(ba.Preds), ids(bb.Preds))
		case !slices.Equal(ids(ba.Succs), ids(bb.Succs)):
			return fmt.Sprintf("block %s succs %v vs %v", ba.Name, ids(ba.Succs), ids(bb.Succs))
		}
		if d := instrs(ba.Phis, bb.Phis); d != "" {
			return fmt.Sprintf("block %s phis: %s", ba.Name, d)
		}
		if d := instrs(ba.Instrs, bb.Instrs); d != "" {
			return fmt.Sprintf("block %s: %s", ba.Name, d)
		}
	}
	return ""
}

func TestCodecRoundTrip(t *testing.T) {
	f := codecFunc()
	g, err := DecodeBinary(AppendBinary(nil, f))
	if err != nil {
		t.Fatal(err)
	}
	if d := funcDiff(g, f); d != "" {
		t.Fatal(d)
	}
	for i := range f.Vars {
		if f.VarName(VarID(i)) != g.VarName(VarID(i)) {
			t.Fatalf("var %d display name %q vs %q", i, g.VarName(VarID(i)), f.VarName(VarID(i)))
		}
	}
	if g.String() != f.String() {
		t.Fatalf("textual form changed:\n--- got\n%s\n--- want\n%s", g.String(), f.String())
	}
	// Pred order carries φ-argument matching; check it survives exactly.
	join := g.Blocks[3]
	if join.Preds[0].Name != "left" || join.Preds[1].Name != "right" {
		t.Fatalf("pred order lost: %s, %s", join.Preds[0].Name, join.Preds[1].Name)
	}
	if err := Verify(g); err != nil {
		t.Fatal(err)
	}

	// The version-1 JSON codec, kept as the oracle, rebuilds the same
	// function.
	data, err := EncodeJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	j, err := DecodeJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if d := funcDiff(g, j); d != "" {
		t.Fatalf("binary and JSON codecs disagree: %s", d)
	}
}

func TestCodecFreqSurvives(t *testing.T) {
	g, err := DecodeBinary(AppendBinary(nil, MustParse(codecSrc)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Blocks[1].Freq != 4 {
		t.Fatalf("freq = %v, want 4", g.Blocks[1].Freq)
	}
}

// TestDecodeRejectsCorruption damages a function in memory, encodes it with
// both codecs, and wants both decoders to refuse it: the binary codec keeps
// every check of the JSON one.
func TestDecodeRejectsCorruption(t *testing.T) {
	cases := map[string]func(f *Func){
		"bad var index":   func(f *Func) { f.Blocks[1].Instrs[0].Uses[1] = 99 },
		"bad block index": func(f *Func) { f.Blocks[0].Succs[1] = &Block{ID: 42} },
		"bad opcode":      func(f *Func) { f.Blocks[3].Instrs[0].Op = 250 },
		"no blocks":       func(f *Func) { f.Blocks = nil },
		"forward base":    func(f *Func) { f.Vars[0].base = 1 },
		"self base":       func(f *Func) { f.Vars[2].base = 2 },
		"neg params":      func(f *Func) { f.NumParams = -2 },
		"huge params":     func(f *Func) { f.NumParams = maxParamIndex + 2 },
		"neg freq":        func(f *Func) { f.Blocks[2].Freq = -1 },
		"missing edge":    func(f *Func) { f.Blocks[1].Succs = nil },
		"phi arity":       func(f *Func) { f.Blocks[3].Phis[0].Uses = f.Blocks[3].Phis[0].Uses[:1] },
	}
	for name, damage := range cases {
		f := codecFunc()
		damage(f)
		if _, err := DecodeBinary(AppendBinary(nil, f)); err == nil {
			t.Errorf("%s: binary decode succeeded, want error", name)
		}
		data, err := EncodeJSON(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := DecodeJSON(data); err == nil {
			t.Errorf("%s: the JSON oracle accepted it; the case tests nothing", name)
		}
	}
	for name, damage := range map[string]func(f *Func){
		"NaN freq": func(f *Func) { f.Blocks[2].Freq = math.NaN() },
		"Inf freq": func(f *Func) { f.Blocks[2].Freq = math.Inf(1) },
	} {
		f := codecFunc()
		damage(f)
		if _, err := DecodeBinary(AppendBinary(nil, f)); err == nil {
			t.Errorf("%s: binary decode succeeded, want error", name)
		}
	}
	good := AppendBinary(nil, codecFunc())
	if _, err := DecodeBinary(append(good, 0)); err == nil {
		t.Error("trailing byte: decode succeeded, want error")
	}
}

// TestDecodeRejectsEveryTruncation cuts an encoding at every byte: no
// prefix may decode.
func TestDecodeRejectsEveryTruncation(t *testing.T) {
	data := AppendBinary(nil, codecFunc())
	for n := range data {
		if _, err := DecodeBinary(data[:n]); err == nil {
			t.Fatalf("a %d-byte prefix of %d decoded", n, len(data))
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the binary decoder: it must never
// panic, anything it accepts must pass Verify, and re-encoding an accepted
// function must decode to an equal one.
func FuzzDecode(f *testing.F) {
	f.Add(AppendBinary(nil, codecFunc()))
	f.Add(AppendBinary(nil, MustParse(`
func loop {
entry:
  n = param 0
  i0 = const 0
  jump head
head:
  i = phi entry:i0 body:i2
  c = cmplt i n
  br c body exit
body:
  one = const 1
  i2 = add i one
  parcopy a:i b:one
  jump head
exit:
  d = brdec n body done
done:
  ret d
}
`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeBinary(data)
		if err != nil {
			return
		}
		if err := Verify(g); err != nil {
			t.Fatalf("accepted a function that fails Verify: %v", err)
		}
		again, err := DecodeBinary(AppendBinary(nil, g))
		if err != nil {
			t.Fatalf("re-encoding an accepted function does not decode: %v", err)
		}
		if d := funcDiff(g, again); d != "" {
			t.Fatalf("re-encoding changed the function: %s", d)
		}
	})
}
