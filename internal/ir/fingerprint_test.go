package ir_test

import (
	"math/rand"
	"testing"

	"repro/internal/ir"
)

const fpDiamondSrc = `
func diamond {
entry:
  x = param 0
  zero = const 0
  c = cmplt x zero
  br c then else
then:
  one = const 1
  a = add x one
  jump join
else:
  two = const 2
  b = add x two
  jump join
join:
  y = phi then:a else:b
  print y
  ret y
}
`

// TestFingerprintNameInsensitive: renaming every variable and block must
// not move the fingerprint — names never feed translation decisions, and
// the memo's whole point is that a renamed near-duplicate still hits.
func TestFingerprintNameInsensitive(t *testing.T) {
	f := ir.MustParse(fpDiamondSrc)
	fp := f.Fingerprint()

	g := ir.MustParse(fpDiamondSrc)
	for id := range g.Vars {
		g.Vars[id].Name = g.VarName(ir.VarID(id)) + "_renamed"
	}
	for _, b := range g.Blocks {
		b.Name += "_r"
	}
	if g.Fingerprint() != fp {
		t.Fatalf("rename moved the fingerprint: %v vs %v", g.Fingerprint(), fp)
	}
	g.Name = "other"
	if g.Fingerprint() != fp {
		t.Fatal("function name moved the fingerprint")
	}
}

// TestFingerprintStructuralSensitivity: every structural dimension the
// translation observes must move the fingerprint.
func TestFingerprintStructuralSensitivity(t *testing.T) {
	base := ir.MustParse(fpDiamondSrc).Fingerprint()

	edit := func(name string, mutate func(f *ir.Func)) {
		f := ir.MustParse(fpDiamondSrc)
		mutate(f)
		if f.Fingerprint() == base {
			t.Errorf("%s: fingerprint did not move", name)
		}
	}
	edit("extra instruction", func(f *ir.Func) {
		v := f.NewVar("extra")
		e := f.Entry()
		e.Instrs = append(e.Instrs[:len(e.Instrs)-1],
			&ir.Instr{Op: ir.OpConst, Defs: []ir.VarID{v}, Aux: 9},
			e.Instrs[len(e.Instrs)-1])
		f.MarkCodeMutated()
	})
	edit("changed aux", func(f *ir.Func) {
		f.Blocks[1].Instrs[0].Aux = 42
		f.MarkCodeMutated()
	})
	edit("changed operand", func(f *ir.Func) {
		in := f.Blocks[1].Instrs[1] // a = add x one
		in.Uses[0] = in.Uses[1]
		f.MarkCodeMutated()
	})
	edit("swapped successors", func(f *ir.Func) {
		e := f.Entry()
		e.Succs[0], e.Succs[1] = e.Succs[1], e.Succs[0]
		f.MarkCFGMutated()
	})
	edit("register pin", func(f *ir.Func) {
		f.Vars[0].Reg = "R0"
		f.MarkCodeMutated()
	})
	edit("block frequency", func(f *ir.Func) {
		f.Blocks[1].Freq = 100
		f.MarkCodeMutated()
	})
}

// TestFingerprintCacheInvalidation: the cached fingerprint must follow
// every marked edit — after MarkCodeMutated it equals the fingerprint of a
// fresh clone of the edited function, never the stale cached value.
func TestFingerprintCacheInvalidation(t *testing.T) {
	f := ir.MustParse(fpDiamondSrc)
	rng := rand.New(rand.NewSource(41))
	for step := 0; step < 40; step++ {
		before := f.Fingerprint() // fill the cache
		b := f.Blocks[rng.Intn(len(f.Blocks))]
		n := len(b.Instrs)
		switch rng.Intn(2) {
		case 0:
			b.Instrs = append(b.Instrs[:n-1],
				&ir.Instr{Op: ir.OpConst, Defs: []ir.VarID{0}, Aux: int64(step)},
				b.Instrs[n-1])
		case 1:
			b.Instrs[0].Aux = int64(1000 + step)
		}
		f.MarkCodeMutated()

		got := f.Fingerprint()
		want := ir.Clone(f).Fingerprint()
		if got != want {
			t.Fatalf("step %d: cached fingerprint %v != fresh clone's %v", step, got, want)
		}
		if got == before {
			t.Fatalf("step %d: edit did not move the fingerprint", step)
		}
	}
}

// TestFingerprintGolden pins the hash value itself. Memo keys are
// fingerprints and ssad -memo-file persists them, so a rewrite of the hash
// that changed its value would silently turn every snapshot entry into a
// miss. The literals must never change.
func TestFingerprintGolden(t *testing.T) {
	const pinnedSrc = `
func pinned {
entry:
  a = param 0
  b = param 1
  c = add a b
  jump loop
loop (freq 8):
  d = phi entry:c loop:e
  e = sub d b
  f = cmplt e a
  br f loop exit
exit (freq 0.5):
  ret e
}
`
	const parcopySrc = `
func pc {
entry:
  a = param 0
  b = param 1
  z = const 0
  c = cmplt a z
  br c left right
left:
  parcopy x:a y:b
  jump join
right:
  parcopy x2:b y2:a
  jump join
join:
  p = phi left:x right:x2
  q = phi left:y right:y2
  r = sub p q
  print r
  ret r
}
`
	for _, tc := range []struct {
		name string
		src  string
		pin  bool // pin variable 1 to register R1
		want ir.Fingerprint
	}{
		{"diamond", fpDiamondSrc, false, ir.Fingerprint{Hi: 0x15bb9f87241488cf, Lo: 0xafca383312432f01}},
		{"pinned-freq", pinnedSrc, true, ir.Fingerprint{Hi: 0x20e83b6b891df906, Lo: 0x1f41e821fe9338d6}},
		{"phi-parcopy", parcopySrc, false, ir.Fingerprint{Hi: 0x2621360aefd93d3e, Lo: 0x58524f8e6820cf50}},
	} {
		f := ir.MustParse(tc.src)
		if tc.pin {
			f.Vars[1].Reg = "R1"
			f.MarkCodeMutated()
		}
		if got := f.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint {Hi: %#016x, Lo: %#016x}, want {Hi: %#016x, Lo: %#016x}",
				tc.name, got.Hi, got.Lo, tc.want.Hi, tc.want.Lo)
		}
	}
}
