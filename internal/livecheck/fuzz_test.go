package livecheck_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dom"
	"repro/internal/ir"
	"repro/internal/livecheck"
)

// fuzzFunc draws a random strict-SSA function of about n blocks whose CFG
// has the given shape: 0 a random spanning tree with extra edges, 1 a
// ladder of back edges, 2 an irreducible tree-with-edges graph (redrawn
// until one is, within a few attempts).
func fuzzFunc(rng *rand.Rand, shape uint8, n int) *ir.Func {
	switch shape % 3 {
	case 0:
		return randomFunc(rng, treeEdges(rng, n))
	case 1:
		return randomFunc(rng, ladderEdges(rng, n))
	}
	var f *ir.Func
	for try := 0; try < 20; try++ {
		if f = randomFunc(rng, treeEdges(rng, n)); isIrreducible(f, dom.Build(f)) {
			break
		}
	}
	return f
}

// FuzzLiveCheck holds one Checker, memo included, to the fixpoint oracle:
// every (variable, block) liveness query and every accepted-target query
// is asked in a fuzzed order, twice, so the second round reads stored
// accepted sets, and then again after the Checker is rebuilt in place on
// a second function of a different size.
func FuzzLiveCheck(f *testing.F) {
	for shape := uint8(0); shape < 3; shape++ {
		f.Add(int64(1), shape, int64(1))
		f.Add(int64(2009), shape, int64(7))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, order int64) {
		rng := rand.New(rand.NewSource(seed))
		n1 := 3 + rng.Intn(40)
		n2 := 3 + (n1+1+rng.Intn(30))%43
		var lc livecheck.Checker
		for _, fn := range []*ir.Func{fuzzFunc(rng, shape, n1), fuzzFunc(rng, shape, n2)} {
			dt := dom.Build(fn)
			du := ir.NewDefUse(fn)
			lc.Rebuild(fn, dt, du)
			checkQueries(t, fn, dt, &lc, rand.New(rand.NewSource(order)))
		}
	})
}

// checkQueries compares lc with the oracle on every query of fn, in an
// order drawn from rng, twice over.
func checkQueries(t *testing.T, fn *ir.Func, dt *dom.Tree, lc *livecheck.Checker, rng *rand.Rand) {
	t.Helper()
	oracle := livecheck.NewOracle(fn, dt, ir.NewDefUse(fn))
	nb, nv := len(fn.Blocks), len(fn.Vars)
	for round := 0; round < 2; round++ {
		for _, k := range rng.Perm(nb * nv) {
			v, q := ir.VarID(k/nb), k%nb
			if got, want := lc.LiveInBlock(v, q), oracle.LiveInBlock(v, q); got != want {
				t.Fatalf("round %d: liveIn(%s, %s) = %v, oracle %v\n%s", round, fn.VarName(v), fn.Blocks[q].Name, got, want, fn)
			}
			if got, want := lc.LiveOutBlock(v, q), oracle.LiveOutBlock(v, q); got != want {
				t.Fatalf("round %d: liveOut(%s, %s) = %v, oracle %v\n%s", round, fn.VarName(v), fn.Blocks[q].Name, got, want, fn)
			}
		}
		for _, k := range rng.Perm(nb * nb) {
			q, d := k/nb, k%nb
			if !dt.StrictlyDominates(d, q) {
				continue
			}
			if got, want := lc.Accepted(q, d), oracle.Accepted(q, d); !slices.Equal(got, want) {
				t.Fatalf("round %d: walk from %s not crossing %s accepts %v, oracle %v\n%s",
					round, fn.Blocks[q].Name, fn.Blocks[d].Name, got, want, fn)
			}
		}
	}
}

// TestAcceptMemoResetByRebuild: the stored accepted set of a block belongs
// to one function. After the Checker is rebuilt on another function with
// the same block count, the same (q, d) query must be answered afresh, not
// from the row the first function left behind.
func TestAcceptMemoResetByRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Both functions have four blocks and one loop target, block 1. From
	// q = 2 without crossing d = 0, the first re-enters that loop through
	// the back edge 2→1; the second cannot, as only 1 loops to itself.
	first := randomFunc(rng, [][]int{{1}, {2, 3}, {1}, {}})
	second := randomFunc(rng, [][]int{{1}, {1, 2}, {3}, {}})
	const q, d = 2, 0
	var lc livecheck.Checker
	for i, fn := range []*ir.Func{first, second} {
		dt := dom.Build(fn)
		lc.Rebuild(fn, dt, ir.NewDefUse(fn))
		got, want := lc.Accepted(q, d), livecheck.NewOracle(fn, dt, ir.NewDefUse(fn)).Accepted(q, d)
		if !slices.Equal(got, want) {
			t.Fatalf("function %d: walk from b%d not crossing b%d accepts %v, oracle %v\n%s", i, q, d, got, want, fn)
		}
		if (i == 0) == (len(want) == 0) {
			t.Fatalf("function %d accepts %v: the two functions must differ on the query", i, want)
		}
	}
}
