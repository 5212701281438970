package congruence_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/congruence"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

func newChecker(f *ir.Func, useLiveCheck bool) *interference.Checker {
	dt := dom.Build(f)
	du := ir.NewDefUse(f)
	var live interference.BlockLiveness
	if useLiveCheck {
		live = livecheck.New(f, dt, du)
	} else {
		live = liveness.Compute(f)
	}
	return &interference.Checker{F: f, DT: dt, DU: du, Live: live, Vals: ssa.Values(f, dt)}
}

// quadValue is the reference: any cross pair interfering under the
// value-based definition.
func quadValue(chk *interference.Checker, xs, ys []ir.VarID) bool {
	for _, x := range xs {
		for _, y := range ys {
			if chk.Interferes(x, y) {
				return true
			}
		}
	}
	return false
}

func quadIntersect(chk *interference.Checker, xs, ys []ir.VarID) bool {
	for _, x := range xs {
		for _, y := range ys {
			if x != y && chk.Intersect(x, y) {
				return true
			}
		}
	}
	return false
}

// replayCase is one coalescing replay of the oracle tests: a function with
// Method I copies inserted and the order its affinities are offered in.
type replayCase struct {
	f         *ir.Func
	ins       *sreedhar.Insertion
	affs      []sreedhar.Affinity
	liveCheck bool
}

// copyInserted runs the correctness pre-passes and Method I copy insertion.
func copyInserted(t *testing.T, f *ir.Func) *sreedhar.Insertion {
	t.Helper()
	sreedhar.SplitDuplicatePredEdges(f)
	sreedhar.SplitBranchDefEdges(f)
	ins, err := sreedhar.InsertCopies(f)
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// smallCases returns DefaultProfile functions with their affinities
// shuffled.
func smallCases(t *testing.T, name string, seed int64, funcs int) []replayCase {
	rng := rand.New(rand.NewSource(seed))
	p := cfggen.DefaultProfile(name, seed)
	p.Funcs = funcs
	var out []replayCase
	for i, f := range cfggen.Generate(p) {
		ins := copyInserted(t, f)
		affs := append([]sreedhar.Affinity(nil), ins.Affinities...)
		rng.Shuffle(len(affs), func(i, j int) { affs[i], affs[j] = affs[j], affs[i] })
		out = append(out, replayCase{f, ins, affs, i%2 == 0})
	}
	return out
}

// largeCases returns one function each of the batch-large shapes
// (LargeTranslateProfile: loops carrying swap cycles; LargeLivenessProfile:
// deep loop nests, wide joins) with the affinities heaviest-first, the
// order coalesce.Run uses, so classes grow to hundreds of members.
func largeCases(t *testing.T, name string, seed int64) []replayCase {
	tp := cfggen.LargeTranslateProfile(name+"-translate", seed, 1)
	lp := cfggen.LargeLivenessProfile(name+"-liveness", seed, 0.5)
	tp.Funcs, lp.Funcs = 1, 1
	var out []replayCase
	for i, f := range append(cfggen.GenerateLarge(tp), cfggen.GenerateLarge(lp)...) {
		ins := copyInserted(t, f)
		affs := append([]sreedhar.Affinity(nil), ins.Affinities...)
		affs = append(affs, sreedhar.CollectRealCopiesInto(f, ins, nil)...)
		sort.SliceStable(affs, func(i, j int) bool { return affs[i].Weight > affs[j].Weight })
		out = append(out, replayCase{f, ins, affs, i%2 == 0})
	}
	return out
}

// start returns fresh classes over the case with every φ-node
// force-merged, as Method I's Lemma 1 allows.
func (rc *replayCase) start() (*interference.Checker, *congruence.Classes) {
	chk := newChecker(rc.f, rc.liveCheck)
	classes := congruence.NewIn(chk, nil)
	for _, node := range rc.ins.PhiNodes {
		for i := 1; i < len(node); i++ {
			classes.MergeForced(node[0], node[i])
		}
	}
	return chk, classes
}

// largestClass returns the member count of the largest class.
func largestClass(f *ir.Func, classes *congruence.Classes) int {
	most := 0
	for v := range f.Vars {
		most = max(most, len(classes.Members(ir.VarID(v))))
	}
	return most
}

// checkPair runs the linear check of the classes of a and b (values selects
// InterferesLinear over InterferesLinearPure) and compares it with two
// oracles: the quadratic all-pairs test decides, and the eager traversal
// must agree on the decision, on the intersection tests issued (class and
// checker counters both) and on every recorded equal_anc_out.
func checkPair(t *testing.T, f *ir.Func, chk *interference.Checker, classes *congruence.Classes, a, b ir.VarID, values bool) bool {
	t.Helper()
	xs, ys := classes.Members(a), classes.Members(b)
	want := quadIntersect(chk, xs, ys)
	if values {
		want = quadValue(chk, xs, ys)
	}
	eager, eagerTests, eagerOut := congruence.EagerCheck(classes, a, b, values)
	tests, queries := classes.Tests, chk.Queries
	got := false
	if values {
		got = classes.InterferesLinear(a, b)
	} else {
		got = classes.InterferesLinearPure(a, b)
	}
	tests, queries = classes.Tests-tests, chk.Queries-queries
	if got != want || eager != want {
		t.Fatalf("%s: linear=%v eager=%v quadratic=%v (values=%v) for classes\nX=%v\nY=%v\n%s",
			f.Name, got, eager, want, values, names(f, xs), names(f, ys), f)
	}
	if tests != eagerTests || queries != eagerTests {
		t.Fatalf("%s: linear check issued %d tests (%d checker queries), eager traversal %d (classes of %s and %s)",
			f.Name, tests, queries, eagerTests, f.VarName(a), f.VarName(b))
	}
	if values {
		for _, m := range append(append([]ir.VarID(nil), xs...), ys...) {
			w, ok := eagerOut[m]
			if !ok {
				w = ir.NoVar
			}
			if g := congruence.EqualAncOut(classes, m); g != w {
				t.Fatalf("%s: equal_anc_out(%s) = %s, eager traversal %s",
					f.Name, f.VarName(m), name(f, g), name(f, w))
			}
		}
	}
	return got
}

// TestLinearMatchesQuadraticThroughMerges replays realistic coalescing
// runs: Method I copies inserted, φ-nodes pre-merged, then affinities
// processed in random order (small functions) or heaviest-first (large
// ones). Before every merge the linear answer must match the quadratic and
// eager oracles; merges use the linear bookkeeping so the
// equal-intersecting-ancestor chains are exercised across a long mutation
// sequence.
func TestLinearMatchesQuadraticThroughMerges(t *testing.T) {
	cases := largeCases(t, "cong", 200)
	for seed := int64(0); seed < 5; seed++ {
		cases = append(cases, smallCases(t, "cong", 200+seed, 4)...)
	}
	most := 0
	for _, rc := range cases {
		chk, classes := rc.start()
		for _, a := range rc.affs {
			if classes.SameClass(a.Dst, a.Src) {
				continue
			}
			if !checkPair(t, rc.f, chk, classes, a.Dst, a.Src, true) {
				classes.Merge(a.Dst, a.Src)
			}
		}
		most = max(most, largestClass(rc.f, classes))
	}
	if most < 100 {
		t.Fatalf("largest class reached %d members; the large inputs should reach hundreds", most)
	}
}

// TestLinearPureMatchesQuadratic does the same for the pure-intersection
// form of Algorithm 2.
func TestLinearPureMatchesQuadratic(t *testing.T) {
	for _, rc := range append(smallCases(t, "congpure", 300, 6), largeCases(t, "congpure", 300)...) {
		rc.liveCheck = false
		chk, classes := rc.start()
		for _, a := range rc.affs {
			if classes.SameClass(a.Dst, a.Src) {
				continue
			}
			if !checkPair(t, rc.f, chk, classes, a.Dst, a.Src, false) {
				classes.MergeSimple(a.Dst, a.Src)
			}
		}
	}
}

// TestLinearFindsAncestorBehindSiblingRun: the singleton class {s} is
// checked against a class whose members x1..x3 sit in a sibling subtree
// (left) between s and its only dominating member x0. The traversal
// pushes x0..x3 as one lazy run and must examine it past x3, x2 and x1 to
// reach x0; whether s and x0 interfere is decided by x0's use in right.
func TestLinearFindsAncestorBehindSiblingRun(t *testing.T) {
	for _, x0LiveAtS := range []bool{true, false} {
		use := ""
		if x0LiveAtS {
			use = "print x0"
		}
		f := ir.MustParse(`
func sibling {
entry:
  x0 = param 0
  c = param 1
  br c right left
left:
  x1 = const 1
  print x1
  x2 = const 2
  print x2
  x3 = const 3
  print x3
  jump join
right:
  s = const 4
  print s
  ` + use + `
  jump join
join:
  ret c
}
`)
		chk := newChecker(f, false)
		v := func(n string) ir.VarID { return varNamed(t, f, n) }
		if chk.DefOrder(v("x3"), v("s")) >= 0 {
			t.Fatal("left must precede right in pre-DFS order")
		}
		classes := congruence.NewIn(chk, nil)
		for _, x := range []string{"x1", "x2", "x3"} {
			classes.MergeForced(v("x0"), v(x))
		}
		for _, values := range []bool{true, false} {
			if got := checkPair(t, f, chk, classes, v("s"), v("x0"), values); got != x0LiveAtS {
				t.Fatalf("x0 live at s=%v: linear check (values=%v) says %v", x0LiveAtS, values, got)
			}
		}
	}
}

// TestLinearSharedDefinitionPoint: φs of one block share a definition
// point, so each dominates the others and only the variable-ID tie-break
// orders them. The φ p2 is checked against the class {p1, p3} around it,
// and the class {p1} against {p2, p3} after it; p3 is dead, and p2 meets
// p1 only when both are used.
func TestLinearSharedDefinitionPoint(t *testing.T) {
	for _, p2Used := range []bool{true, false} {
		use := ""
		if p2Used {
			use = "print p2"
		}
		f := ir.MustParse(`
func phis {
entry:
  a = param 0
  b = param 1
  c = param 2
  br c left right
left:
  jump join
right:
  jump join
join:
  p1 = phi left:a right:b
  p2 = phi left:b right:a
  p3 = phi left:a right:a
  print p1
  ` + use + `
  ret c
}
`)
		chk := newChecker(f, false)
		v := func(n string) ir.VarID { return varNamed(t, f, n) }
		if chk.DefOrder(v("p1"), v("p3")) != 0 || !(v("p1") < v("p2") && v("p2") < v("p3")) {
			t.Fatal("p1 < p2 < p3 must share one definition point")
		}
		for _, tc := range []struct{ single, x, y string }{
			{"p2", "p1", "p3"},
			{"p1", "p2", "p3"},
		} {
			classes := congruence.NewIn(chk, nil)
			classes.MergeForced(v(tc.x), v(tc.y))
			for _, values := range []bool{true, false} {
				if got := checkPair(t, f, chk, classes, v(tc.single), v(tc.x), values); got != p2Used {
					t.Fatalf("p2 used=%v: {%s} vs {%s %s} (values=%v) says %v",
						p2Used, tc.single, tc.x, tc.y, values, got)
				}
			}
		}
	}
}

// TestLinearUnreachableDefinitions: definitions in unreachable blocks share
// one preorder sentinel, so pre-DFS order interleaves blocks x and y by
// slot (u1, u2, u3) and dominance no longer nests subtrees: u1 dominates
// u3 although u2, between them, is not dominated by u1. The traversal must
// visit such members eagerly — popping u1 at u2 — and issue exactly the
// eager traversal's tests, none here.
func TestLinearUnreachableDefinitions(t *testing.T) {
	f := ir.MustParse(`
func unreachable {
entry:
  a = param 0
  ret a
x:
  u1 = const 1
  print u1
  u3 = const 3
  print u3
  ret u3
y:
  w = const 0
  u2 = const 2
  print u2
  ret u2
}
`)
	chk := newChecker(f, false)
	v := func(n string) ir.VarID { return varNamed(t, f, n) }
	if chk.DefOrder(v("u1"), v("u2")) >= 0 || chk.DefOrder(v("u2"), v("u3")) >= 0 || !chk.DefDominates(v("u1"), v("u3")) {
		t.Fatal("u1 < u2 < u3 in pre-DFS order with u1 dominating u3 expected")
	}
	classes := congruence.NewIn(chk, nil)
	classes.MergeForced(v("u1"), v("u2"))
	for _, values := range []bool{true, false} {
		before := classes.Tests
		if checkPair(t, f, chk, classes, v("u3"), v("u1"), values) || classes.Tests != before {
			t.Fatalf("values=%v: want no interference and no tests, got %d tests", values, classes.Tests-before)
		}
	}
}

// varNamed returns the variable of f called n.
func varNamed(t *testing.T, f *ir.Func, n string) ir.VarID {
	t.Helper()
	for v := range f.Vars {
		if f.VarName(ir.VarID(v)) == n {
			return ir.VarID(v)
		}
	}
	t.Fatalf("no variable %s", n)
	return ir.NoVar
}

func names(f *ir.Func, vs []ir.VarID) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = f.VarName(v)
	}
	return out
}

func TestMembersStaySorted(t *testing.T) {
	p := cfggen.DefaultProfile("sorted", 400)
	p.Funcs = 3
	for _, f := range cfggen.Generate(p) {
		sreedhar.SplitDuplicatePredEdges(f)
		sreedhar.SplitBranchDefEdges(f)
		ins, err := sreedhar.InsertCopies(f)
		if err != nil {
			t.Fatal(err)
		}
		chk := newChecker(f, false)
		classes := congruence.NewIn(chk, nil)
		for _, node := range ins.PhiNodes {
			for i := 1; i < len(node); i++ {
				classes.MergeForced(node[0], node[i])
			}
		}
		for _, a := range ins.Affinities {
			if !classes.SameClass(a.Dst, a.Src) && !classes.InterferesLinear(a.Dst, a.Src) {
				classes.Merge(a.Dst, a.Src)
			}
		}
		seen := map[ir.VarID]bool{}
		for v := range f.Vars {
			root := classes.Find(ir.VarID(v))
			if seen[root] {
				continue
			}
			seen[root] = true
			ms := classes.Members(root)
			for i := 1; i < len(ms); i++ {
				if d := chk.DefOrder(ms[i-1], ms[i]); d > 0 {
					t.Fatalf("%s: class of %s not in pre-DFS order", f.Name, f.VarName(root))
				}
			}
		}
	}
}

func TestUnionFindBasics(t *testing.T) {
	f := ir.MustParse(`
func u {
entry:
  a = param 0
  b = copy a
  c = copy a
  d = copy a
  print b
  print c
  print d
  ret a
}
`)
	chk := newChecker(f, false)
	classes := congruence.NewIn(chk, nil)
	a, b, c := ir.VarID(0), ir.VarID(1), ir.VarID(2)
	if classes.SameClass(a, b) {
		t.Fatal("fresh classes are singletons")
	}
	classes.MergeForced(a, b)
	classes.MergeForced(b, c)
	if !classes.SameClass(a, c) {
		t.Fatal("transitivity")
	}
	if len(classes.Members(a)) != 3 {
		t.Fatalf("members = %v", names(f, classes.Members(a)))
	}
}

func TestRegisterLabelsPropagate(t *testing.T) {
	f := ir.NewFunc("r")
	b := f.NewBlock("entry")
	x := f.NewPinnedVar("x", "R0")
	y := f.NewVar("y")
	z := f.NewPinnedVar("z", "R1")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{x}, Aux: 1},
		{Op: ir.OpCopy, Defs: []ir.VarID{y}, Uses: []ir.VarID{x}},
		{Op: ir.OpConst, Defs: []ir.VarID{z}, Aux: 2},
		{Op: ir.OpPrint, Uses: []ir.VarID{z}},
		{Op: ir.OpRet, Uses: []ir.VarID{y}},
	}
	chk := newChecker(f, false)
	classes := congruence.NewIn(chk, nil)
	if classes.Reg(x) != "R0" || classes.Reg(z) != "R1" || classes.Reg(y) != "" {
		t.Fatal("initial labels wrong")
	}
	classes.MergeForced(y, x)
	if classes.Reg(y) != "R0" {
		t.Fatal("label must survive the merge")
	}
}

// TestMergeForcedConflictingRegistersPanics: force-merging two classes
// pinned to *different* architectural registers must panic naming both
// registers — silently keeping one label would retarget the other
// register's variables and miscompile (the bug link used to have: the
// absorbed root's label overwrote the survivor's).
func TestMergeForcedConflictingRegistersPanics(t *testing.T) {
	f := ir.NewFunc("conflict")
	b := f.NewBlock("entry")
	x := f.NewPinnedVar("x", "R0")
	y := f.NewPinnedVar("y", "R1")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{x}, Aux: 1},
		{Op: ir.OpConst, Defs: []ir.VarID{y}, Aux: 2},
		{Op: ir.OpPrint, Uses: []ir.VarID{x}},
		{Op: ir.OpRet, Uses: []ir.VarID{y}},
	}
	chk := newChecker(f, false)
	classes := congruence.NewIn(chk, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MergeForced of differently-pinned classes must panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "R0") || !strings.Contains(msg, "R1") {
			t.Fatalf("panic must name both registers, got %v", r)
		}
	}()
	classes.MergeForced(x, y)
}

// TestMergeSamePinnedRegisterKeepsLabel: merging two classes pinned to the
// *same* register stays legal, in either merge direction.
func TestMergeSamePinnedRegisterKeepsLabel(t *testing.T) {
	f := ir.NewFunc("samereg")
	b := f.NewBlock("entry")
	x := f.NewPinnedVar("x", "R4")
	y := f.NewPinnedVar("y", "R4")
	z := f.NewVar("z")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{x}, Aux: 1},
		{Op: ir.OpCopy, Defs: []ir.VarID{z}, Uses: []ir.VarID{x}},
		{Op: ir.OpConst, Defs: []ir.VarID{y}, Aux: 2},
		{Op: ir.OpRet, Uses: []ir.VarID{y}},
	}
	chk := newChecker(f, false)
	classes := congruence.NewIn(chk, nil)
	classes.MergeForced(x, y)
	classes.MergeForced(z, x)
	if classes.Reg(x) != "R4" || classes.Reg(y) != "R4" || classes.Reg(z) != "R4" {
		t.Fatalf("label lost: %q %q %q", classes.Reg(x), classes.Reg(y), classes.Reg(z))
	}
}

// TestEqualAncInvariant: after a sequence of checked merges, equalAncIn(v)
// must be exactly the nearest dominating ancestor of v within its class
// that has the same value and intersects v — verified against brute force,
// on small functions and on the large ones with classes of hundreds of
// members.
func TestEqualAncInvariant(t *testing.T) {
	for _, rc := range append(smallCases(t, "eqanc", 800, 4), largeCases(t, "eqanc", 800)...) {
		f := rc.f
		chk, classes := rc.start()
		for _, a := range rc.affs {
			if !classes.SameClass(a.Dst, a.Src) && !classes.InterferesLinear(a.Dst, a.Src) {
				classes.Merge(a.Dst, a.Src)
			}
		}
		seen := map[ir.VarID]bool{}
		for v := range f.Vars {
			root := classes.Find(ir.VarID(v))
			if seen[root] {
				continue
			}
			seen[root] = true
			members := classes.Members(root)
			for _, m := range members {
				want := bruteEqualAnc(chk, members, m)
				if got := classes.EqualAncIn(m); got != want {
					t.Fatalf("%s: equalAncIn(%s) = %v, want %v (class %v)",
						f.Name, f.VarName(m), name(f, got), name(f, want), names(f, members))
				}
			}
		}
	}
}

func bruteEqualAnc(chk *interference.Checker, members []ir.VarID, v ir.VarID) ir.VarID {
	best := ir.NoVar
	for _, m := range members {
		if m == v || !chk.DefDominates(m, v) || chk.DefOrder(m, v) == 0 && m > v {
			continue
		}
		if chk.DefOrder(m, v) == 0 {
			continue // same definition point: not an ancestor in the forest
		}
		if chk.Value(m) != chk.Value(v) || !chk.Intersect(m, v) {
			continue
		}
		if best == ir.NoVar || chk.DefDominates(best, m) {
			best = m // m is nearer (dominated by the previous best)
		}
	}
	return best
}

func name(f *ir.Func, v ir.VarID) string {
	if v == ir.NoVar {
		return "-"
	}
	return f.VarName(v)
}
