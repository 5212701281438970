package parcopy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

// simulate executes the emitted sequential copies on an environment seeded
// with the identity (env[v] = v) and returns the final environment.
func simulate(seq []Copy, vars int) []ir.VarID {
	env := make([]ir.VarID, vars+1)
	for i := range env {
		env[i] = ir.VarID(i)
	}
	for _, c := range seq {
		env[c.Dst] = env[c.Src]
	}
	return env
}

// checkParallel asserts that the sequentialization implements the parallel
// semantics dsts[i] = initial value of srcs[i].
func checkParallel(t *testing.T, dsts, srcs []ir.VarID, vars int) []Copy {
	t.Helper()
	fresh := func() ir.VarID { return ir.VarID(vars) } // one scratch slot
	seq := new(Scratch).Sequentialize(dsts, srcs, fresh)
	env := simulate(seq, vars)
	touched := map[ir.VarID]bool{ir.VarID(vars): true}
	for i, d := range dsts {
		if env[d] != srcs[i] {
			t.Fatalf("dst %d: got value of %d, want %d (dsts=%v srcs=%v seq=%v)",
				d, env[d], srcs[i], dsts, srcs, seq)
		}
		touched[d] = true
	}
	for v := 0; v < vars; v++ {
		if !touched[ir.VarID(v)] && env[v] != ir.VarID(v) {
			t.Fatalf("non-destination %d was clobbered (dsts=%v srcs=%v seq=%v)", v, dsts, srcs, seq)
		}
	}
	return seq
}

func v(ids ...int) []ir.VarID {
	out := make([]ir.VarID, len(ids))
	for i, x := range ids {
		out[i] = ir.VarID(x)
	}
	return out
}

func TestSimpleChain(t *testing.T) {
	// a→b, b→c: tree copies, no extra variable, exactly two copies.
	seq := checkParallel(t, v(1, 2), v(0, 1), 3)
	if len(seq) != 2 {
		t.Fatalf("chain needs 2 copies, got %v", seq)
	}
}

func TestSwapNeedsOneExtraCopy(t *testing.T) {
	seq := checkParallel(t, v(0, 1), v(1, 0), 2)
	if len(seq) != 3 {
		t.Fatalf("a swap needs exactly 3 copies, got %v", seq)
	}
}

func TestThreeCycle(t *testing.T) {
	// (a→b, b→c, c→a): one cycle, 3 pairs → 4 copies.
	seq := checkParallel(t, v(1, 2, 0), v(0, 1, 2), 3)
	if len(seq) != 4 {
		t.Fatalf("3-cycle needs exactly 4 copies, got %v", seq)
	}
}

func TestPaperExample(t *testing.T) {
	// (a↦b, b↦c, c↦a, c↦d): circuit (a,b,c) plus tree edge c→d. The paper
	// generates d=c, c=a, a=b, b=d — four copies, no scratch.
	seq := checkParallel(t, v(1, 2, 0, 3), v(0, 1, 2, 2), 4)
	if len(seq) != 4 {
		t.Fatalf("want 4 copies, got %v", seq)
	}
}

func TestSelfCopiesDropped(t *testing.T) {
	seq := checkParallel(t, v(0, 1), v(0, 1), 2)
	if len(seq) != 0 {
		t.Fatalf("self copies must vanish, got %v", seq)
	}
}

func TestFanOut(t *testing.T) {
	// One source to many destinations: exactly n copies.
	seq := checkParallel(t, v(1, 2, 3), v(0, 0, 0), 4)
	if len(seq) != 3 {
		t.Fatalf("fan-out needs 3 copies, got %v", seq)
	}
}

func TestOverlappingCycleAndTree(t *testing.T) {
	// Swap with an extra reader of each swapped value: the duplication
	// breaks the cycle for free (no scratch copy).
	seq := checkParallel(t, v(0, 1, 2, 3), v(1, 0, 0, 1), 4)
	if len(seq) != 4 {
		t.Fatalf("want 4 copies (duplication breaks the cycle), got %v", seq)
	}
}

// TestRandomPermutationsAndTrees is the property test: random parallel
// copies (permutation cycles + fan-out trees) must be implemented with the
// minimum number of copies: pairs + one per cycle that duplicates nothing.
func TestRandomPermutationsAndTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		// Random injective partial map dst→src over [0,n): permutations of a
		// random subset, plus extra fan-out destinations.
		perm := rng.Perm(n)
		var dsts, srcs []ir.VarID
		used := map[int]bool{}
		for i := 0; i < n; i++ {
			if rng.Intn(3) > 0 {
				dsts = append(dsts, ir.VarID(i))
				srcs = append(srcs, ir.VarID(perm[i]))
				used[i] = true
			}
		}
		// Fan-out extras: fresh destinations fed by arbitrary sources.
		extra := rng.Intn(3)
		for e := 0; e < extra; e++ {
			d := n + e
			dsts = append(dsts, ir.VarID(d))
			srcs = append(srcs, ir.VarID(rng.Intn(n)))
		}
		seq := checkParallel(t, dsts, srcs, n+extra)

		// Optimality: count closed cycles with no duplication.
		if got, want := len(seq), minCopies(dsts, srcs); got != want {
			t.Fatalf("trial %d: emitted %d copies, optimal %d (dsts=%v srcs=%v seq=%v)",
				trial, got, want, dsts, srcs, seq)
		}
	}
}

// minCopies computes the optimum: one copy per non-self pair plus one extra
// per cycle whose values are not duplicated outside the cycle.
func minCopies(dsts, srcs []ir.VarID) int {
	pairs := 0
	next := map[ir.VarID]ir.VarID{} // src → dst within the mapping
	indeg := map[ir.VarID]int{}     // times a var is used as a source
	for i := range dsts {
		if dsts[i] == srcs[i] {
			continue
		}
		pairs++
		next[srcs[i]] = dsts[i]
		indeg[srcs[i]]++
	}
	// A "closed cycle with no duplication" is a cycle in dst→src where every
	// cycle member's value feeds exactly one destination (its successor).
	extra := 0
	seen := map[ir.VarID]bool{}
	for i := range dsts {
		start := dsts[i]
		if dsts[i] == srcs[i] || seen[start] {
			continue
		}
		// Walk dst → its src's... follow cycle via next from start.
		cur, isCycle, dupFree := start, false, true
		for steps := 0; steps <= len(dsts); steps++ {
			seen[cur] = true
			if indeg[cur] > 1 {
				dupFree = false
			}
			nxt, ok := next[cur]
			if !ok {
				break
			}
			if nxt == start {
				isCycle = true
				break
			}
			cur = nxt
		}
		if isCycle && dupFree {
			extra++
		}
	}
	return pairs + extra
}

func TestNaiveCount(t *testing.T) {
	if NaiveCount(v(0, 1, 2), v(1, 0, 2)) != 4 {
		t.Fatal("naive count: two non-self pairs → 4")
	}
}

func TestSequentializeInstr(t *testing.T) {
	f := ir.NewFunc("t")
	b := f.NewBlock("b")
	a := f.NewVar("a")
	c := f.NewVar("b")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpParCopy, Defs: []ir.VarID{a, c}, Uses: []ir.VarID{c, a}},
		{Op: ir.OpRet},
	}
	seq := new(Scratch).SequentializeInstr(f, b, 0, func() ir.VarID { return f.NewVar("tmp") })
	if len(seq) != 3 || len(b.Instrs) != 4 {
		t.Fatalf("swap expands to 3 copies in place, got %v / %d instrs", seq, len(b.Instrs))
	}
	for _, in := range b.Instrs[:3] {
		if in.Op != ir.OpCopy {
			t.Fatalf("expected copies, got %s", in.Op)
		}
	}
	if b.Instrs[3].Op != ir.OpRet {
		t.Fatal("terminator must stay last")
	}
}

func TestMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on mismatched lists")
		}
	}()
	new(Scratch).Sequentialize(v(1), v(1, 2), nil)
}

// TestDuplicateDestinationPanics: a destination appearing twice makes the
// parallel assignment ambiguous and used to silently corrupt the pred map
// (the second pair overwrote the first's predecessor, dropping a copy) —
// it must be rejected loudly instead.
func TestDuplicateDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate destination")
		}
	}()
	// (a, a) ← (b, c): before the check, pred[a] was silently set to c and
	// the copy from b was lost.
	new(Scratch).Sequentialize(v(1, 1), v(2, 3), nil)
}

// TestDuplicateSelfCopyDestinationPanics: the check covers self copies too
// — (a, a) ← (a, b) is just as ambiguous.
func TestDuplicateSelfCopyDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate destination involving a self copy")
		}
	}()
	new(Scratch).Sequentialize(v(1, 1), v(1, 2), nil)
}

// TestQuickParallelSemantics drives Sequentialize with testing/quick:
// arbitrary byte vectors are decoded into a valid parallel copy (unique
// destinations, arbitrary sources), which must always implement the
// parallel semantics with no more than pairs+cycles copies.
func TestQuickParallelSemantics(t *testing.T) {
	f := func(raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(raw[0])%10 + 2
		var dsts, srcs []ir.VarID
		for i, b := range raw[1:] {
			if i >= n {
				break
			}
			dsts = append(dsts, ir.VarID(i))
			srcs = append(srcs, ir.VarID(int(b)%n))
		}
		if len(dsts) == 0 {
			return true
		}
		fresh := func() ir.VarID { return ir.VarID(n) }
		seq := new(Scratch).Sequentialize(dsts, srcs, fresh)
		env := simulate(seq, n)
		for i, d := range dsts {
			if env[d] != srcs[i] {
				return false
			}
		}
		return len(seq) <= len(dsts)+len(dsts)/2+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
