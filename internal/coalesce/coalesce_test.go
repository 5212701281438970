package coalesce_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

func setup(f *ir.Func, linear bool) (*coalesce.Machinery, *sreedhar.Insertion) {
	sreedhar.SplitDuplicatePredEdges(f)
	sreedhar.SplitBranchDefEdges(f)
	ins, err := sreedhar.InsertCopies(f)
	if err != nil {
		panic(err)
	}
	dt := dom.Build(f)
	chk := &interference.Checker{
		F: f, DT: dt, DU: ir.NewDefUse(f), Live: liveness.Compute(f),
		Vals: ssa.Values(f, dt),
	}
	classes := congruence.NewIn(chk, nil)
	for _, node := range ins.PhiNodes {
		for i := 1; i < len(node); i++ {
			classes.MergeForced(node[0], node[i])
		}
	}
	return &coalesce.Machinery{Chk: chk, Classes: classes, Linear: linear}, ins
}

// TestNoInterferingClassesAfterRun is the engine's safety invariant: after
// any variant's run, no congruence class contains two members that
// interfere under the value-based definition.
func TestNoInterferingClassesAfterRun(t *testing.T) {
	variants := []coalesce.Variant{
		coalesce.Intersect, coalesce.SreedharI, coalesce.Chaitin, coalesce.Value,
	}
	p := cfggen.DefaultProfile("safety", 600)
	p.Funcs = 5
	for _, orig := range cfggen.Generate(p) {
		for _, v := range variants {
			for _, linear := range []bool{false, true} {
				f := ir.Clone(orig)
				m, ins := setup(f, linear)
				coalesce.Run(m, ins.Affinities, v, false)
				assertClassesClean(t, f, m)
			}
		}
	}
}

func assertClassesClean(t *testing.T, f *ir.Func, m *coalesce.Machinery) {
	t.Helper()
	seen := map[ir.VarID]bool{}
	for v := range f.Vars {
		root := m.Classes.Find(ir.VarID(v))
		if seen[root] {
			continue
		}
		seen[root] = true
		ms := m.Classes.Members(root)
		for i, x := range ms {
			for _, y := range ms[i+1:] {
				if m.Chk.Interferes(x, y) {
					t.Fatalf("%s: coalesced class holds interfering %s and %s",
						f.Name, f.VarName(x), f.VarName(y))
				}
			}
		}
	}
}

// TestWeightPriority: two φ arguments pinned to different architectural
// registers cannot both join the φ-node; the heavier copy must win.
func TestWeightPriority(t *testing.T) {
	src := `
func w {
entry:
  a = param 0
  jump loop
loop (freq 100):
  x = phi entry:a loop:b
  one = const 1
  b = add x one
  ten = const 10
  c = cmplt b ten
  br c loop exit
exit:
  ret x
}
`
	f := ir.MustParse(src)
	// Pin the two φ arguments to different registers: their classes can
	// never merge, so exactly one of them joins the φ-node — weight order
	// decides which.
	for i, v := range f.Vars {
		if v.Name == "a" {
			f.Vars[i].Reg = "R0"
		}
		if v.Name == "b" {
			f.Vars[i].Reg = "R1"
		}
	}
	m, ins := setup(f, true)
	res := coalesce.Run(m, ins.Affinities, coalesce.Value, false)
	for i, a := range ins.Affinities {
		blk := f.Blocks[a.Block]
		switch {
		case blk.Freq >= 100 && f.VarName(a.Src) == "b":
			if res.Statuses[i] != coalesce.Coalesced {
				t.Fatalf("heavy copy of b must coalesce: %+v", res.Statuses)
			}
		case blk.Freq < 100 && f.VarName(a.Src) == "a":
			if res.Statuses[i] != coalesce.Remaining {
				t.Fatalf("light copy of a must lose to b: %+v", res.Statuses)
			}
		}
	}
}

// TestRegisterConflictBlocksCoalescing: classes pinned to different
// architectural registers must never merge.
func TestRegisterConflictBlocksCoalescing(t *testing.T) {
	f := ir.NewFunc("regs")
	b := f.NewBlock("entry")
	x := f.NewPinnedVar("x", "R0")
	y := f.NewPinnedVar("y", "R1")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{x}, Aux: 1},
		{Op: ir.OpCopy, Defs: []ir.VarID{y}, Uses: []ir.VarID{x}},
		{Op: ir.OpPrint, Uses: []ir.VarID{y}},
		{Op: ir.OpRet},
	}
	dt := dom.Build(f)
	chk := &interference.Checker{
		F: f, DT: dt, DU: ir.NewDefUse(f), Live: liveness.Compute(f),
		Vals: ssa.Values(f, dt),
	}
	m := &coalesce.Machinery{Chk: chk, Classes: congruence.NewIn(chk, nil)}
	affs := sreedhar.CollectRealCopiesInto(f, nil, nil)
	res := coalesce.Run(m, affs, coalesce.Value, false)
	if res.RemainingCount != 1 {
		t.Fatalf("the x→y copy must remain (different registers), got %+v", res)
	}
	if m.Classes.SameClass(x, y) {
		t.Fatal("pinned classes merged across registers")
	}
}

// TestSharingRemovesRedundantCopy reproduces the paper's sharing situation:
// two copies of the same value where coalescing is blocked, but the second
// copy can reuse the first.
func TestSharingRemovesRedundantCopy(t *testing.T) {
	// b = copy a and c = copy a cannot coalesce with a because a's class
	// also holds z ("after some other coalescing", paper Section III-B),
	// and z interferes with both b and c. But V(b) = V(c) = a and b is live
	// just after c's copy, so sharing coalesces b with c and drops the
	// second copy.
	src := `
func sh {
entry:
  a = param 0
  z = param 1
  b = copy a
  c = copy a
  d = add b c
  e = add d z
  print e
  ret a
}
`
	f := ir.MustParse(src)
	dt := dom.Build(f)
	chk := &interference.Checker{
		F: f, DT: dt, DU: ir.NewDefUse(f), Live: liveness.Compute(f),
		Vals: ssa.Values(f, dt),
	}
	m := &coalesce.Machinery{Chk: chk, Classes: congruence.NewIn(chk, nil), Linear: true}
	a, z := ir.VarID(0), ir.VarID(1)
	m.Classes.MergeForced(a, z) // emulate a prior coalescing decision
	affs := sreedhar.CollectRealCopiesInto(f, nil, nil)
	res := coalesce.Run(m, affs, coalesce.Value, false)
	if res.RemainingCount != 2 {
		t.Fatalf("both copies must be blocked by z in a's class: %+v", res)
	}
	removed := coalesce.Share(m, affs, res)
	if removed != 1 {
		t.Fatalf("sharing must remove one copy, removed %d", removed)
	}
	b, c := ir.VarID(2), ir.VarID(3)
	if !m.Classes.SameClass(b, c) {
		t.Fatal("sharing must coalesce b and c")
	}
}

// TestVirtualizerMatchesMethodIQuality: with value-based interference, the
// virtualized translator must coalesce the same φ copies as Method I
// followed by per-φ greedy coalescing (the paper's claim that quality does
// not depend on virtualization).
func TestVirtualizerMatchesMethodIQuality(t *testing.T) {
	p := cfggen.DefaultProfile("virtq", 700)
	p.Funcs = 6
	for _, orig := range cfggen.Generate(p) {
		// Method I + per-φ greedy (Value+IS ordering).
		f1 := ir.Clone(orig)
		m1, ins1 := setup(f1, true)
		res1 := coalesce.Run(m1, ins1.Affinities, coalesce.Value, true)

		// Virtualized.
		f2 := ir.Clone(orig)
		sreedhar.SplitDuplicatePredEdges(f2)
		sreedhar.SplitBranchDefEdges(f2)
		ins2 := &sreedhar.Insertion{
			BeginCopies: make([]*ir.Instr, len(f2.Blocks)),
			EndCopies:   make([]*ir.Instr, len(f2.Blocks)),
		}
		sreedhar.PrepareParallelCopies(f2, ins2)
		dt := dom.Build(f2)
		chk := &interference.Checker{
			F: f2, DT: dt, DU: ir.NewDefUse(f2), Live: liveness.Compute(f2),
			Vals: ssa.Values(f2, dt),
		}
		m2 := &coalesce.Machinery{Chk: chk, Classes: congruence.NewIn(chk, nil), Linear: true}
		vz := &coalesce.Virtualizer{M: m2, Ins: ins2, Variant: coalesce.Value,
			Live: chk.Live.(*liveness.Info)}
		res2 := vz.Run(f2)

		if res1.RemainingCount != len(res2.Materialized) {
			t.Logf("Method I remaining: %d, virtualized materialized: %d (func %s)",
				res1.RemainingCount, len(res2.Materialized), orig.Name)
			// The orders differ slightly (virtualization processes the φ
			// result eagerly); allow a small gap but not a blowup.
			diff := res1.RemainingCount - len(res2.Materialized)
			if diff < -2 || diff > 2 {
				t.Fatalf("quality gap too large: %d vs %d",
					res1.RemainingCount, len(res2.Materialized))
			}
		}
	}
}
