package interference_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// agree fails the test when the optimized query path (binary-search
// LiveAfter, packed def-point keys) and the reference implementations
// disagree anywhere on f.
func agree(t *testing.T, f *ir.Func, chk *interference.Checker, stage string) {
	t.Helper()
	n := len(f.Vars)
	for a := 0; a < n; a++ {
		av := ir.VarID(a)
		for b := 0; b < n; b++ {
			bv := ir.VarID(b)
			if got, want := chk.DefDominates(av, bv), chk.DefDominatesReference(av, bv); got != want {
				t.Fatalf("%s/%s: DefDominates(%s,%s) = %v, reference %v",
					f.Name, stage, f.VarName(av), f.VarName(bv), got, want)
			}
			got, want := chk.DefOrder(av, bv), chk.DefOrderReference(av, bv)
			if (got < 0) != (want < 0) || (got > 0) != (want > 0) {
				t.Fatalf("%s/%s: DefOrder(%s,%s) = %d, reference %d",
					f.Name, stage, f.VarName(av), f.VarName(bv), got, want)
			}
		}
		for _, b := range f.Blocks {
			for slot := int32(0); slot <= int32(len(b.Instrs)); slot++ {
				if got, want := chk.LiveAfter(av, b.ID, slot), chk.LiveAfterReference(av, b.ID, slot); got != want {
					t.Fatalf("%s/%s: LiveAfter(%s, %d, %d) = %v, reference %v",
						f.Name, stage, f.VarName(av), b.ID, slot, got, want)
				}
			}
		}
	}
}

func buildChecker(f *ir.Func, useLiveCheck bool) *interference.Checker {
	dt := dom.Build(f)
	du := ir.NewDefUse(f)
	var live interference.BlockLiveness
	if useLiveCheck {
		live = livecheck.New(f, dt, du)
	} else {
		live = liveness.ComputeWith(f, liveness.Bitsets)
	}
	return &interference.Checker{F: f, DT: dt, DU: du, Live: live, Vals: ssa.Values(f, dt)}
}

// TestOptimizedQueriesMatchReference is the differential property test of
// the tentpole: on random and large generated CFGs, under both liveness
// backends, the binary-search LiveAfter and the packed def-order keys must
// agree with the pre-optimization linear-scan implementations — before and
// after the virtualized translator moves definitions around
// (ReplaceDef/AddUse/RemoveUse through materialization).
func TestOptimizedQueriesMatchReference(t *testing.T) {
	var funcs []*ir.Func
	p := cfggen.DefaultProfile("refdiff", 911)
	p.Funcs = 4
	funcs = append(funcs, cfggen.Generate(p)...)
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeCoalesceProfile("refdiff-large", 913, 0.04))...)
	// Definitions in two unreachable blocks share the preorder sentinel.
	funcs = append(funcs, ir.MustParse(`
func unreachable {
entry:
  a = param 0
  ret a
x:
  u1 = const 1
  print u1
  u3 = const 3
  ret u3
y:
  w = const 0
  u2 = copy w
  ret u2
}
`))

	for fi, f := range funcs {
		useLiveCheck := fi%2 == 0
		sreedhar.SplitDuplicatePredEdges(f)
		sreedhar.SplitBranchDefEdges(f)

		// Stage 1: static function, copies not yet inserted.
		agree(t, f, buildChecker(f, useLiveCheck), "static")

		// Stage 2: run the virtualized translator, which materializes
		// copies through AddDef/AddUse/RemoveUse/ReplaceDef and reports the
		// moves with DefMoved; the cached keys must track every move.
		ins := &sreedhar.Insertion{
			BeginCopies: make([]*ir.Instr, len(f.Blocks)),
			EndCopies:   make([]*ir.Instr, len(f.Blocks)),
		}
		sreedhar.PrepareParallelCopies(f, ins)
		dt := dom.Build(f)
		du := ir.NewDefUse(f)
		live := liveness.ComputeWith(f, liveness.Bitsets)
		var oracle interference.BlockLiveness = live
		if useLiveCheck {
			oracle = livecheck.New(f, dt, du)
		}
		chk := &interference.Checker{F: f, DT: dt, DU: du, Live: oracle, Vals: ssa.Values(f, dt)}
		classes := congruence.New(chk)
		m := &coalesce.Machinery{Chk: chk, Classes: classes, Linear: true}
		vz := &coalesce.Virtualizer{M: m, Ins: ins, Variant: coalesce.Value, Live: live}
		vz.Run(f)
		agree(t, f, chk, "virtualized")
	}
}
