package interference_test

import (
	"fmt"
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
	"repro/outofssa/bench"
)

// agree fails the test when the optimized query path (binary-search
// LiveAfter, packed def-point keys) and the reference implementations
// disagree anywhere on f.
func agree(t *testing.T, f *ir.Func, chk *interference.Checker, stage string) {
	t.Helper()
	n := len(f.Vars)
	for a := 0; a < n; a++ {
		av := ir.VarID(a)
		if got, want := chk.UnreachableDef(av), chk.UnreachableDefReference(av); got != want {
			t.Fatalf("%s/%s: UnreachableDef(%s) = %v, reference %v",
				f.Name, stage, f.VarName(av), got, want)
		}
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

// prepared returns a clone of f with the correctness pre-passes of the
// translator applied, so copies can be inserted on every edge.
func prepared(f *ir.Func) *ir.Func {
	g := ir.Clone(f)
	sreedhar.SplitDuplicatePredEdges(g)
	sreedhar.SplitBranchDefEdges(g)
	return g
}

// agreeAtStages compares the two query paths on f in each state the
// translator puts a function through, on clones of f:
//   - static: no copy inserted yet;
//   - Method I: every φ copy inserted, then coalesced with the Value
//     variant and the linear class test, then the sharing post-pass;
//   - virtualized, under each class-interference variant: the virtualizer
//     materializes copies through AddDef/AddUse/RemoveUse/ReplaceDef and
//     reports the moves with DefMoved, and the cached keys must track
//     every move.
func agreeAtStages(t *testing.T, f *ir.Func, useLiveCheck bool) {
	t.Helper()
	g := prepared(f)
	agree(t, g, newChecker(g, useLiveCheck), "static")

	g = prepared(f)
	ins, err := sreedhar.InsertCopies(g)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	chk := newChecker(g, useLiveCheck)
	classes := congruence.NewIn(chk, nil)
	for _, node := range ins.PhiNodes {
		for i := 1; i < len(node); i++ {
			classes.MergeForced(node[0], node[i])
		}
	}
	affs := append(ins.Affinities, sreedhar.CollectRealCopiesInto(g, ins, nil)...)
	m := &coalesce.Machinery{Chk: chk, Classes: classes, Linear: true}
	coalesce.Share(m, affs, coalesce.Run(m, affs, coalesce.Value, false))
	agree(t, g, chk, "method I")

	for _, v := range []coalesce.Variant{coalesce.Intersect, coalesce.SreedharI, coalesce.Chaitin, coalesce.Value} {
		g := prepared(f)
		ins := &sreedhar.Insertion{}
		ins.Reset(len(g.Blocks))
		sreedhar.PrepareParallelCopies(g, ins)
		// The virtualizer updates live as it materializes copies, so a
		// checker on liveness sets must read this instance.
		dt, du := dom.Build(g), ir.NewDefUse(g)
		live := liveness.Compute(g)
		var oracle interference.BlockLiveness = live
		if useLiveCheck {
			oracle = livecheck.New(g, dt, du)
		}
		chk := &interference.Checker{F: g, DT: dt, DU: du, Live: oracle, Vals: ssa.Values(g, dt)}
		m := &coalesce.Machinery{Chk: chk, Classes: congruence.NewIn(chk, nil), Linear: true}
		vz := &coalesce.Virtualizer{M: m, Ins: ins, Variant: v, Live: live}
		vz.Run(g)
		agree(t, g, chk, fmt.Sprintf("virtualized variant %d", v))
	}
}

// unreachableSrc defines variables in two unreachable blocks, which share
// the preorder sentinel of the def-point keys.
const unreachableSrc = `
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
`

// TestOptimizedQueriesMatchReference is the differential property test of
// the query path: on random and large generated CFGs and the Figure 5
// suite, under both liveness backends, the binary-search LiveAfter and the
// packed def-point keys must agree with the pre-optimization derivations
// at every stage of agreeAtStages. The coalescing corpus's functions
// already carry Method I's copies, so they are checked in that state, on
// each backend, after the coalescing pass BenchmarkCoalesce times.
func TestOptimizedQueriesMatchReference(t *testing.T) {
	var funcs []*ir.Func
	p := cfggen.DefaultProfile("refdiff", 911)
	p.Funcs = 4
	funcs = append(funcs, cfggen.Generate(p)...)
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeCoalesceProfile("refdiff-large", 913, 0.04))...)
	funcs = append(funcs, ir.MustParse(unreachableSrc))
	for _, b := range bench.Suite(0.05) {
		funcs = append(funcs, b.Funcs...)
	}
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeCoalesceProfile("oracle", 971, 0.04))...)
	for fi, f := range funcs {
		agreeAtStages(t, f, fi%2 == 0)
	}

	for _, c := range bench.CoalesceCorpus(0.03) {
		for _, useLiveCheck := range []bool{false, true} {
			chk := c.NewChecker(useLiveCheck)
			c.RunCoalesce(chk)
			agree(t, c.Func(), chk, "coalesced")
		}
	}
}

// FuzzQueriesMatchReference runs agreeAtStages, under both liveness
// backends, on every input the parser and the strict-SSA verifier accept.
func FuzzQueriesMatchReference(f *testing.F) {
	for _, s := range []string{
		`
func swap {
entry:
  a1 = param 0
  b1 = param 1
  jump loop
loop:
  a2 = phi entry:a1 loop:b2
  b2 = phi entry:b1 loop:a2
  s = add a2 b2
  lim = const 20
  c = cmplt s lim
  br c loop exit
exit:
  ret s
}
`,
		`
func lostcopy {
entry:
  x1 = param 0
  jump loop
loop (freq 10):
  x2 = phi entry:x1 loop:x3
  one = const 1
  x3 = add x2 one
  ten = const 10
  c = cmplt x3 ten
  br c loop exit
exit:
  print x2
  ret x2
}
`,
		unreachableSrc,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := ir.Parse(src)
		if err != nil {
			return
		}
		if err := ssa.VerifyIn(fn, dom.Build(fn), nil); err != nil {
			return
		}
		for _, useLiveCheck := range []bool{false, true} {
			agreeAtStages(t, fn, useLiveCheck)
		}
	})
}
