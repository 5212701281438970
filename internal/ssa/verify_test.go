package ssa_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/ir"
	"repro/internal/ssa"
)

// verifyOrPanic runs ssa.VerifyIn and turns a panic into a test failure
// message, so a malformed input that crashes the verifier is reported as
// such instead of taking the whole test binary down.
func verifyOrPanic(f *ir.Func) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, ssa.VerifyIn(f, dom.Build(f), nil)
}

// TestVerifyRejections lists one input per reason ssa.VerifyIn rejects a
// function and the exact message it reports.
func TestVerifyRejections(t *testing.T) {
	for _, tc := range []struct {
		name, src, want string
	}{
		{"double definition", `
func dd {
entry:
  x = const 1
  x = const 2
  ret x
}
`, "ir: variable x defined twice (not SSA)"},
		{"never defined", `
func undef {
entry:
  a = param 0
  b = add a y
  ret b
}
`, "variable y used but never defined"},
		{"use before def in block", `
func early {
entry:
  b = add a a
  a = param 0
  ret b
}
`, "use of a in entry precedes its definition"},
		{"use not dominated", `
func nodom {
entry:
  a = param 0
  br a t e
t:
  x = const 1
  jump j
e:
  jump j
j:
  print x
  ret a
}
`, "use of x in j not dominated by definition in t"},
		{"phi argument not dominated", `
func phidom {
entry:
  a = param 0
  br a t e
t:
  x = const 1
  jump j
e:
  jump j
j:
  y = phi t:x e:x
  ret y
}
`, "use of x in e not dominated by definition in t"},
		{"first failing variable wins", `
func order {
entry:
  a = param 0
  br a t e
t:
  x = const 1
  y = const 2
  jump j
e:
  jump j
j:
  print y
  print x
  ret a
}
`, "use of x in j not dominated by definition in t"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := verifyOrPanic(ir.MustParse(tc.src))
			if p != nil {
				t.Fatalf("VerifyIn panicked: %v", p)
			}
			if err == nil || err.Error() != tc.want {
				t.Fatalf("VerifyIn = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestVerifyRejectsMalformedPhis: a φ whose operands do not name variables
// of the function is an error, never a panic.
func TestVerifyRejectsMalformedPhis(t *testing.T) {
	const src = `
func loop {
entry:
  a = param 0
  jump h
h:
  i = phi entry:a h:j
  j = sub i a
  br j h x
x:
  ret i
}
`
	for _, tc := range []struct {
		name    string
		corrupt func(f *ir.Func, phi *ir.Instr)
	}{
		{"NoVar argument", func(f *ir.Func, phi *ir.Instr) { phi.Uses[0] = ir.NoVar }},
		{"argument out of range", func(f *ir.Func, phi *ir.Instr) { phi.Uses[1] = ir.VarID(len(f.Vars)) }},
		{"destination out of range", func(f *ir.Func, phi *ir.Instr) { phi.Defs[0] = ir.VarID(len(f.Vars)) }},
		{"no destination", func(f *ir.Func, phi *ir.Instr) { phi.Defs = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := ir.MustParse(src)
			tc.corrupt(f, f.Blocks[1].Phis[0])
			p, err := verifyOrPanic(f)
			if p != nil {
				t.Fatalf("VerifyIn panicked: %v", p)
			}
			if err == nil {
				t.Fatal("malformed φ accepted")
			}
			t.Log(err)
		})
	}
}

// verifyWithIndex is VerifyIn as it stood when it built a def-use index and
// scanned every variable's (block, slot)-sorted use list: the oracle for
// which error VerifyIn reports.
func verifyWithIndex(f *ir.Func, dt *dom.Tree) (err error) {
	if err := ir.Verify(f); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	du := ir.NewDefUse(f)
	for v := range f.Vars {
		vid := ir.VarID(v)
		if !du.HasDef(vid) {
			if len(du.Uses(vid)) > 0 {
				return fmt.Errorf("variable %s used but never defined", f.VarName(vid))
			}
			continue
		}
		db, ds := du.DefBlock(vid), du.DefSlot(vid)
		for _, u := range du.Uses(vid) {
			ub := int(u.Block)
			if ub == db {
				if u.Slot < ds || (u.Slot == ds && u.Instr != du.DefInstr(vid)) {
					return fmt.Errorf("use of %s in %s precedes its definition",
						f.VarName(vid), f.Blocks[ub].Name)
				}
				continue
			}
			if !dt.Dominates(db, ub) {
				return fmt.Errorf("use of %s in %s not dominated by definition in %s",
					f.VarName(vid), f.Blocks[ub].Name, f.Blocks[db].Name)
			}
		}
	}
	return nil
}

// TestVerifyMatchesIndexedVerify corrupts generated SSA functions at random
// — operands renamed, definitions duplicated, instructions swapped within
// a block or moved to another — and requires VerifyIn to return exactly the
// error the index-based verifier returns.
func TestVerifyMatchesIndexedVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := cfggen.DefaultProfile("verify", 14)
	p.Funcs = 40
	rejected := 0
	for round := 0; round < 5; round++ {
		for _, f := range cfggen.Generate(p) {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				corrupt(rng, f)
			}
			dt := dom.Build(f)
			got, want := ssa.VerifyIn(f, dt, nil), verifyWithIndex(f, dt)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: VerifyIn = %v, indexed verifier = %v\n%s", f.Name, got, want, f)
			}
			if got != nil {
				rejected++
			}
		}
	}
	if rejected < 100 {
		t.Fatalf("only %d of 200 corrupted functions were rejected", rejected)
	}
}

// corrupt applies one random edit that may break strict SSA form.
func corrupt(rng *rand.Rand, f *ir.Func) {
	b := f.Blocks[rng.Intn(len(f.Blocks))]
	body := b.Instrs[:len(b.Instrs)-1] // keep the terminator last
	switch rng.Intn(4) {
	case 0: // rename a use
		for _, in := range b.Instrs {
			if len(in.Uses) > 0 {
				in.Uses[rng.Intn(len(in.Uses))] = ir.VarID(rng.Intn(len(f.Vars)))
				return
			}
		}
	case 1: // duplicate a definition
		for _, in := range body {
			if len(in.Defs) > 0 {
				in.Defs[0] = ir.VarID(rng.Intn(len(f.Vars)))
				return
			}
		}
	case 2: // swap two body instructions
		if len(body) > 1 {
			i, j := rng.Intn(len(body)), rng.Intn(len(body))
			body[i], body[j] = body[j], body[i]
		}
	default: // move a body instruction to another block
		if len(body) > 0 {
			i := rng.Intn(len(body))
			in := body[i]
			b.Instrs = append(b.Instrs[:i], b.Instrs[i+1:]...)
			to := f.Blocks[rng.Intn(len(f.Blocks))]
			ir.InsertBefore(to, len(to.Instrs)-1, in)
		}
	}
}
