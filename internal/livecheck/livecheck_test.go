package livecheck_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// TestMatchesDataflowOnGeneratedCFGs is the core differential test: on the
// generator's CFGs, the checker must answer exactly like the dataflow
// liveness sets and like the fixpoint oracle, for every variable at every
// block.
func TestMatchesDataflowOnGeneratedCFGs(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		p := cfggen.DefaultProfile("lc", 100+seed)
		p.Funcs = 6
		for _, f := range cfggen.Generate(p) {
			compareAll(t, f, livecheck.New(f, dom.Build(f), ir.NewDefUse(f)))
		}
	}
}

// TestMatchesDataflowAfterCopyInsertion repeats the comparison on the
// program the translator actually queries: after Method I copy insertion,
// with parallel copies and primed variables in place.
func TestMatchesDataflowAfterCopyInsertion(t *testing.T) {
	p := cfggen.DefaultProfile("lci", 321)
	p.Funcs = 6
	for _, f := range cfggen.Generate(p) {
		insertCopies(t, f)
		compareAll(t, f, livecheck.New(f, dom.Build(f), ir.NewDefUse(f)))
	}
}

// TestMatchesOracleOnLargeProfiles covers the deep loop nests and wide
// joins of the large-function generators, where several words of loop
// targets per block can occur.
func TestMatchesOracleOnLargeProfiles(t *testing.T) {
	for _, f := range largeFuncs() {
		compareAll(t, f, livecheck.New(f, dom.Build(f), ir.NewDefUse(f)))
	}
}

// largeFuncs returns one function of each large-function profile, at a
// scale the oracle can afford to query exhaustively.
func largeFuncs() []*ir.Func {
	return []*ir.Func{
		cfggen.GenerateLarge(cfggen.LargeTranslateProfile("lct", 7, 0.3))[0],
		cfggen.GenerateLarge(cfggen.LargeLivenessProfile("lcl", 7, 0.1))[0],
	}
}

func insertCopies(t *testing.T, f *ir.Func) {
	t.Helper()
	sreedhar.SplitDuplicatePredEdges(f)
	sreedhar.SplitBranchDefEdges(f)
	if _, err := sreedhar.InsertCopies(f); err != nil {
		t.Fatal(err)
	}
}

// compareAll asserts that lc, the fixpoint oracle and dataflow liveness
// agree on every block-boundary query of f.
func compareAll(t *testing.T, f *ir.Func, lc *livecheck.Checker) {
	t.Helper()
	dt := dom.Build(f)
	oracle := livecheck.NewOracle(f, dt, ir.NewDefUse(f))
	lv := liveness.Compute(f)
	for _, b := range f.Blocks {
		for v := range f.Vars {
			vid := ir.VarID(v)
			in, out := lc.LiveInBlock(vid, b.ID), lc.LiveOutBlock(vid, b.ID)
			if want := oracle.LiveInBlock(vid, b.ID); in != want {
				t.Fatalf("%s: liveIn(%s, %s) = %v, oracle says %v\n%s", f.Name, f.VarName(vid), b.Name, in, want, f)
			}
			if want := oracle.LiveOutBlock(vid, b.ID); out != want {
				t.Fatalf("%s: liveOut(%s, %s) = %v, oracle says %v\n%s", f.Name, f.VarName(vid), b.Name, out, want, f)
			}
			if want := lv.LiveInBlock(vid, b.ID); in != want {
				t.Fatalf("%s: liveIn(%s, %s) = %v, dataflow says %v\n%s", f.Name, f.VarName(vid), b.Name, in, want, f)
			}
			if want := lv.LiveOutBlock(vid, b.ID); out != want {
				t.Fatalf("%s: liveOut(%s, %s) = %v, dataflow says %v\n%s", f.Name, f.VarName(vid), b.Name, out, want, f)
			}
		}
	}
}

// TestMatchesOracleOnRandomIrreducibleCFGs draws random CFGs whose extra
// edges may enter a loop anywhere, so about half of them have a loop with
// several entries, until 10k such irreducible CFGs were checked: every
// query against the oracle and dataflow liveness, and every accepted
// target set against the oracle's. One Checker, dominator tree and def-use index are rebuilt in
// place for every function, and a large function is interleaved now and
// then, so each small function after it runs on arrays a larger one
// left behind.
func TestMatchesOracleOnRandomIrreducibleCFGs(t *testing.T) {
	want := 10000
	if testing.Short() {
		want = 1000
	}
	rng := rand.New(rand.NewSource(2009))
	large := largeFuncs()
	var dt dom.Tree
	var du ir.DefUse
	var lc livecheck.Checker
	rebuild := func(f *ir.Func) {
		dt.Rebuild(f)
		du.Rebuild(f)
		lc.Rebuild(f, &dt, &du)
	}
	irreducible := 0
	for i := 0; irreducible < want; i++ {
		if i%2000 == 0 {
			rebuild(large[i/2000%len(large)])
		}
		f := randomFunc(rng, treeEdges(rng, 3+rng.Intn(22)))
		rebuild(f)
		if err := ssa.VerifyIn(f, &dt, nil); err != nil {
			t.Fatalf("generator produced non-strict SSA: %v\n%s", err, f)
		}
		if isIrreducible(f, &dt) {
			irreducible++
		}
		compareAll(t, f, &lc)
		compareAccepted(t, f, &dt, &lc)
		if irreducible == want {
			t.Logf("%d random functions, %d of them irreducible", i+1, irreducible)
		}
	}
}

// TestMatchesOracleWithManyLoopTargets uses random functions large enough
// to have more than 64 loop targets, so the loop-target sets span several
// words per block.
func TestMatchesOracleWithManyLoopTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(2008))
	for found := 0; found < 3; {
		f := randomFunc(rng, ladderEdges(rng, 150+rng.Intn(50)))
		lc := livecheck.New(f, dom.Build(f), ir.NewDefUse(f))
		if lc.LoopTargets() <= 64 {
			continue
		}
		found++
		compareAll(t, f, lc)
		compareAccepted(t, f, dom.Build(f), lc)
	}
}

// compareAccepted asserts that the checker's walk accepts exactly the loop
// targets the fixpoint accepts, for every block q and every block d that
// strictly dominates it.
func compareAccepted(t *testing.T, f *ir.Func, dt *dom.Tree, lc *livecheck.Checker) {
	t.Helper()
	oracle := livecheck.NewOracle(f, dt, ir.NewDefUse(f))
	for q := range f.Blocks {
		for d := range f.Blocks {
			if !dt.StrictlyDominates(d, q) {
				continue
			}
			if got, want := lc.Accepted(q, d), oracle.Accepted(q, d); !slices.Equal(got, want) {
				t.Fatalf("%s: walk from %s not crossing %s accepts %v, fixpoint %v\n%s",
					f.Name, f.Blocks[q].Name, f.Blocks[d].Name, got, want, f)
			}
		}
	}
}

// isIrreducible reports whether some back edge of f's depth-first walk
// enters a loop at a block that does not dominate the edge's source.
func isIrreducible(f *ir.Func, dt *dom.Tree) bool {
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if dt.RPONumber(s.ID) <= dt.RPONumber(b.ID) && !dt.Dominates(s.ID, b.ID) {
				return true
			}
		}
	}
	return false
}

// treeEdges returns random successor lists over n blocks: a random
// spanning tree from the entry keeps every block reachable, and extra edges
// go to any block but the entry, which makes multi-entry loops common.
func treeEdges(rng *rand.Rand, n int) [][]int {
	succs := make([][]int, n)
	for i := 1; i < n; i++ {
		for {
			if p := rng.Intn(i); len(succs[p]) < 2 {
				succs[p] = append(succs[p], i)
				break
			}
		}
	}
	addEdges(rng, succs, 0.6)
	return succs
}

// ladderEdges returns successor lists over n blocks chained from the entry,
// where most blocks also branch back to a random earlier block — many
// distinct loop targets — and some of the rest jump anywhere.
func ladderEdges(rng *rand.Rand, n int) [][]int {
	succs := make([][]int, n)
	for i := 0; i+1 < n; i++ {
		succs[i] = append(succs[i], i+1)
	}
	for i := 1; i < n; i++ {
		if rng.Float64() < 0.7 {
			if j := 1 + rng.Intn(i); len(succs[i]) == 0 || succs[i][0] != j {
				succs[i] = append(succs[i], j)
			}
		}
	}
	addEdges(rng, succs, 0.3)
	return succs
}

// addEdges gives each block with a free successor slot, with probability
// p, an edge to a random block other than the entry.
func addEdges(rng *rand.Rand, succs [][]int, p float64) {
	for b := range succs {
		if len(succs[b]) < 2 && rng.Float64() < p {
			if s := 1 + rng.Intn(len(succs)-1); len(succs[b]) == 0 || succs[b][0] != s {
				succs[b] = append(succs[b], s)
			}
		}
	}
}

// randomFunc returns a random strict-SSA function over the CFG given by
// the successor lists, every block reachable from block 0. Every block
// defines and uses variables available from its dominators, join blocks
// carry φs whose arguments are available at each predecessor's exit, and
// terminators use variables too.
func randomFunc(rng *rand.Rand, succs [][]int) *ir.Func {
	n := len(succs)
	bd := ir.NewBuilder("rand")
	f := bd.F
	blocks := []*ir.Block{bd.Cur}
	for len(blocks) < n {
		blocks = append(blocks, f.NewBlock(""))
	}
	for b, ss := range succs {
		for _, s := range ss {
			ir.AddEdge(blocks[b], blocks[s])
		}
	}

	dt := dom.Build(f)
	defs := make([][]ir.VarID, n) // variables defined in each block
	avail := func(b int, pool []ir.VarID) []ir.VarID {
		pool = append(pool[:0], defs[b]...)
		for d := dt.IDom(b); d >= 0; d = dt.IDom(d) {
			pool = append(pool, defs[d]...)
		}
		return pool
	}
	pick := func(pool []ir.VarID) ir.VarID { return pool[rng.Intn(len(pool))] }

	type phiAt struct {
		blk *ir.Block
		phi *ir.Instr
	}
	var phis []phiAt
	for _, b := range dt.RPO() {
		blk := blocks[b]
		bd.SetBlock(blk)
		if b == 0 {
			defs[0] = append(defs[0], bd.Param(0), bd.Param(1))
		}
		if len(blk.Preds) > 1 {
			for k := rng.Intn(3); k > 0; k-- {
				v := f.NewVar("")
				phis = append(phis, phiAt{blk, bd.Phi(blk, v)})
				defs[b] = append(defs[b], v)
			}
		}
		var pool []ir.VarID
		for k := rng.Intn(4); k > 0; k-- {
			pool = avail(b, pool)
			switch rng.Intn(3) {
			case 0:
				defs[b] = append(defs[b], bd.Const(rng.Int63n(5)))
			case 1:
				defs[b] = append(defs[b], bd.Arith(ir.OpAdd, pick(pool), pick(pool)))
			default:
				bd.Print(pick(pool))
			}
		}
		pool = avail(b, pool)
		switch len(blk.Succs) {
		case 0:
			bd.Ret(pick(pool))
		case 1:
			bd.Cur.Instrs = append(bd.Cur.Instrs, &ir.Instr{Op: ir.OpJump})
		default:
			bd.Cur.Instrs = append(bd.Cur.Instrs, &ir.Instr{Op: ir.OpBranch, Uses: []ir.VarID{pick(pool)}})
		}
	}
	var pool []ir.VarID
	for _, pa := range phis {
		for _, p := range pa.blk.Preds {
			pool = avail(p.ID, pool)
			pa.phi.Uses = append(pa.phi.Uses, pick(pool))
		}
	}
	return f
}

// TestStructuresSurviveCopyInsertion: the precomputed structures depend
// only on the CFG, so inserting instructions must not invalidate them —
// only the def-use index is refreshed.
func TestStructuresSurviveCopyInsertion(t *testing.T) {
	p := cfggen.DefaultProfile("lcsurvive", 77)
	p.Funcs = 4
	for _, f := range cfggen.Generate(p) {
		sreedhar.SplitDuplicatePredEdges(f)
		sreedhar.SplitBranchDefEdges(f)
		dt := dom.Build(f)
		lc := livecheck.New(f, dt, ir.NewDefUse(f))
		if _, err := sreedhar.InsertCopies(f); err != nil {
			t.Fatal(err)
		}
		lc.SetDefUse(ir.NewDefUse(f)) // CFG unchanged: reuse the CFG-only sets
		compareAll(t, f, lc)
	}
}

func TestFootprintFormula(t *testing.T) {
	if livecheck.EvaluatedBytes(16) != 2*2*16 {
		t.Fatalf("EvaluatedBytes(16) = %d", livecheck.EvaluatedBytes(16))
	}
	f := ir.MustParse(`
func t {
entry:
  a = param 0
  jump b
b:
  print a
  ret a
}
`)
	dt := dom.Build(f)
	lc := livecheck.New(f, dt, ir.NewDefUse(f))
	if lc.Bytes() <= 0 {
		t.Fatal("measured footprint must be positive")
	}
}
