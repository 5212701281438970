package cfggen

import (
	"math/rand"

	"repro/internal/ir"
	"repro/internal/ssa"
)

// LargeProfile describes one synthetic large-CFG workload for the large
// corpora of outofssa/bench and perfbench: functions of thousands of
// blocks combining deeply nested loops, wide switch-like dispatches whose
// arms all rejoin in one block (many-predecessor joins → dense φ pressure
// after SSA construction), and a pool of shared variables mutated
// everywhere so their live ranges span most of the CFG.
type LargeProfile struct {
	Name string
	Seed int64
	// Funcs is the number of functions to generate.
	Funcs int
	// Blocks is the approximate block budget of one function (pre-SSA;
	// SSA construction adds φs, not blocks).
	Blocks int
	// LoopDepth bounds loop nesting (deep loops make the naive fixpoint
	// re-sweep the whole function once per nesting level).
	LoopDepth int
	// SwitchWidth bounds the arm count of one dispatch.
	SwitchWidth int
	// SharedVars is the size of the mutated-everywhere variable pool.
	SharedVars int
	// FoldCopies is the per-copy probability that post-construction copy
	// propagation folds it. Folding extends live ranges across the copy;
	// the survivors stay in the program as coalescible affinities, so a
	// *low* value yields the copy-dense shape the coalescing corpus
	// wants.
	FoldCopies float64
	// SwapShuffle is the per-loop-header probability of emitting a
	// two-variable swap of shared variables. Swaps carried around a back
	// edge are the paper's swap problem (Figure 3): after copy folding, the
	// loop φs permute values, so some φ-related copies can never coalesce
	// and the surviving parallel copies contain cycles — the input that
	// exercises the sequentializer's cycle breaking. Zero (the default)
	// draws no randomness, keeping the other profiles' corpora unchanged.
	SwapShuffle float64
}

// LargeLivenessProfile returns the profile of bench.LivenessCorpus (the
// liveness engines' golden counts, differential test and BenchmarkLiveness)
// and of half of perfbench's batch-large corpus, scaled by scale (1 ≈ 4
// functions of ~2000 blocks each).
func LargeLivenessProfile(name string, seed int64, scale float64) LargeProfile {
	blocks := int(2000 * scale)
	if blocks < 64 {
		blocks = 64
	}
	return LargeProfile{
		Name: name, Seed: seed, Funcs: 4,
		Blocks: blocks, LoopDepth: 8, SwitchWidth: 12, SharedVars: 24,
		FoldCopies: 0.5,
	}
}

// LargeCoalesceProfile returns the profile of bench.CoalesceCorpus (the
// coalescing golden counts, differential test and BenchmarkCoalesce):
// wider switch joins (wide φs), a larger shared-variable pool (dense φ
// pressure), and most copies kept unfolded (dense affinities), at a
// smaller block budget — coalescing work grows faster than block count.
// 1 ≈ 3 functions of ~800 blocks each.
func LargeCoalesceProfile(name string, seed int64, scale float64) LargeProfile {
	blocks := int(800 * scale)
	if blocks < 48 {
		blocks = 48
	}
	return LargeProfile{
		Name: name, Seed: seed, Funcs: 3,
		Blocks: blocks, LoopDepth: 5, SwitchWidth: 18, SharedVars: 32,
		FoldCopies: 0.25,
	}
}

// LargeTranslateProfile returns the profile of bench.TranslateCorpus (the
// end-to-end golden counts, allocation bounds and BenchmarkTranslate) and
// of the other half of perfbench's batch-large corpus. End-to-end
// translation wants functions that exercise every phase — φ pressure for
// copy insertion, kept copies for the coalescer, and enough live-range
// interference (aggressive copy folding extends ranges across the folded
// copies) that parallel copies survive into the sequentializer — at a
// block budget small enough that all Figure 5 strategies finish quickly.
// 1 ≈ 2 functions of ~500 blocks each.
func LargeTranslateProfile(name string, seed int64, scale float64) LargeProfile {
	blocks := int(500 * scale)
	if blocks < 40 {
		blocks = 40
	}
	return LargeProfile{
		Name: name, Seed: seed, Funcs: 2,
		Blocks: blocks, LoopDepth: 6, SwitchWidth: 14, SharedVars: 24,
		FoldCopies: 0.8, SwapShuffle: 0.5,
	}
}

// LargeScaleProfile returns the profile of the batch-driver tests (the
// RunBatch allocation bounds of TestCorpusAllocs and the work-stealing
// tests of internal/pipeline): a batch of medium functions — the
// per-function work grain of a realistic compile batch — rather than a
// handful of huge ones, so a worker sweep has enough independent units to
// schedule. scale multiplies the per-function block budget; the function
// count stays fixed so the dispatch shape (shards, steal opportunities) is
// comparable across scales. 1 ≈ 30 functions of ~240 blocks each.
func LargeScaleProfile(name string, seed int64, scale float64) LargeProfile {
	blocks := int(240 * scale)
	if blocks < 32 {
		blocks = 32
	}
	return LargeProfile{
		Name: name, Seed: seed, Funcs: 30,
		Blocks: blocks, LoopDepth: 5, SwitchWidth: 10, SharedVars: 16,
		FoldCopies: 0.6, SwapShuffle: 0.2,
	}
}

// GenerateLarge builds the profile's functions in SSA form, deterministically
// from the seed.
func GenerateLarge(p LargeProfile) []*ir.Func {
	rng := rand.New(rand.NewSource(p.Seed))
	funcs := make([]*ir.Func, 0, p.Funcs)
	for i := 0; i < p.Funcs; i++ {
		g := &largeGen{p: p, rng: rand.New(rand.NewSource(rng.Int63()))}
		f := g.function(i)
		dt, _ := ssa.Construct(f)
		// Fold the profile's share of the copies: folding extends live
		// ranges across copies without killing the φ webs; the survivors
		// stay coalescible affinities.
		prng := rand.New(rand.NewSource(rng.Int63()))
		ssa.PropagateCopiesWhere(f, dt, func(ir.VarID) bool { return prng.Float64() < p.FoldCopies })
		ssa.EliminateDeadCode(f)
		ssa.SortPhisByDef(f)
		funcs = append(funcs, f)
	}
	return funcs
}

type largeGen struct {
	p      LargeProfile
	rng    *rand.Rand
	bd     *ir.Builder
	budget int // remaining block budget
	shared []ir.VarID
	blkSeq int
	varSeq int
}

// block mints a uniquely named block and charges the budget.
func (g *largeGen) block(prefix string) *ir.Block {
	g.blkSeq++
	g.budget--
	return g.bd.Block(prefix + itoa(g.blkSeq))
}

func (g *largeGen) varName(prefix string) string {
	g.varSeq++
	return prefix + itoa(g.varSeq)
}

func (g *largeGen) pickShared() ir.VarID { return g.shared[g.rng.Intn(len(g.shared))] }

// mutate overwrites one shared variable from two others — the statement
// shape that turns into φ pressure at every join.
func (g *largeGen) mutate() {
	op := arithOps[g.rng.Intn(len(arithOps))]
	g.bd.Cur.Instrs = append(g.bd.Cur.Instrs, &ir.Instr{
		Op:   op,
		Defs: []ir.VarID{g.pickShared()},
		Uses: []ir.VarID{g.pickShared(), g.pickShared()},
	})
}

// swap exchanges two shared variables through a temporary — around a back
// edge this is the swap problem whose φ copies cannot coalesce (the
// SwapShuffle knob).
func (g *largeGen) swap() {
	x := g.pickShared()
	y := g.pickShared()
	t := g.bd.Copy(x)
	g.bd.CopyTo(x, y)
	g.bd.CopyTo(y, t)
}

func (g *largeGen) function(idx int) *ir.Func {
	g.bd = ir.NewBuilder(g.p.Name + "_f" + itoa(idx))
	g.budget = g.p.Blocks

	g.shared = []ir.VarID{g.bd.Param(0), g.bd.Param(1)}
	for len(g.shared) < g.p.SharedVars {
		g.shared = append(g.shared, g.bd.Const(int64(g.rng.Intn(32)+1)))
	}
	g.body(0)
	// Read every shared variable at the exit so all of them stay live
	// across the whole CFG — the dense-set stress these corpora want.
	for _, v := range g.shared {
		g.bd.Print(v)
	}
	g.bd.Ret(g.shared[0])
	return g.bd.F
}

// body emits nested structure until the block budget runs out.
func (g *largeGen) body(depth int) {
	for g.budget > 0 {
		r := g.rng.Float64()
		switch {
		case depth < g.p.LoopDepth && r < 0.40:
			g.loop(depth)
		case r < 0.85:
			g.switchStmt(depth)
		default:
			for i := 0; i < 2+g.rng.Intn(4); i++ {
				g.mutate()
			}
			g.budget-- // straight-line run charged like a block
		}
		if depth > 0 && g.rng.Float64() < 0.30 {
			return
		}
	}
}

// loop emits a bounded counting loop whose header carries mutations and a
// nested body; some loops use the branch-with-decrement terminator.
func (g *largeGen) loop(depth int) {
	f := g.bd.F
	n := f.NewVar(g.varName("n"))
	g.bd.Cur.Instrs = append(g.bd.Cur.Instrs,
		&ir.Instr{Op: ir.OpConst, Defs: []ir.VarID{n}, Aux: int64(2 + g.rng.Intn(4))})
	header := g.block("h")
	exit := g.block("x")
	g.bd.Jump(header)

	g.bd.SetBlock(header)
	for i := 0; i < 1+g.rng.Intn(3); i++ {
		g.mutate()
	}
	// Guarded draw: profiles with SwapShuffle == 0 consume no randomness
	// here, so their generated corpora are bit-identical to before.
	if g.p.SwapShuffle > 0 && g.rng.Float64() < g.p.SwapShuffle {
		g.swap()
	}
	if depth+1 < g.p.LoopDepth && g.rng.Float64() < 0.6 {
		g.body(depth + 1)
	}
	if g.rng.Float64() < 0.25 {
		g.bd.Cur.Instrs = append(g.bd.Cur.Instrs,
			&ir.Instr{Op: ir.OpBrDec, Defs: []ir.VarID{n}, Uses: []ir.VarID{n}})
		ir.AddEdge(g.bd.Cur, header)
		ir.AddEdge(g.bd.Cur, exit)
	} else {
		one := g.bd.Const(1)
		g.bd.Cur.Instrs = append(g.bd.Cur.Instrs,
			&ir.Instr{Op: ir.OpSub, Defs: []ir.VarID{n}, Uses: []ir.VarID{n, one}})
		zero := g.bd.Const(0)
		cond := g.bd.Arith(ir.OpCmpLT, zero, n)
		g.bd.Branch(cond, header, exit)
	}
	g.bd.SetBlock(exit)
}

// switchStmt emits a wide dispatch: a cmpeq chain selecting one of w arms,
// every arm mutating shared variables and rejoining in a single block — a
// join with w predecessors, i.e. w-argument φs after SSA construction.
func (g *largeGen) switchStmt(depth int) {
	maxW := g.p.SwitchWidth
	if maxW < 2 {
		maxW = 2
	}
	w := 2 + g.rng.Intn(maxW-1)
	sel := g.pickShared()
	join := g.block("j")
	arms := make([]*ir.Block, w)
	for i := range arms {
		arms[i] = g.block("a")
	}
	for i := 0; i < w-1; i++ {
		k := g.bd.Const(int64(i))
		c := g.bd.Arith(ir.OpCmpEQ, sel, k)
		if i == w-2 {
			g.bd.Branch(c, arms[i], arms[i+1])
		} else {
			t := g.block("t")
			g.bd.Branch(c, arms[i], t)
			g.bd.SetBlock(t)
		}
	}
	for _, a := range arms {
		g.bd.SetBlock(a)
		for i := 0; i < 1+g.rng.Intn(3); i++ {
			g.mutate()
		}
		if depth+1 < g.p.LoopDepth && g.budget > 0 && g.rng.Float64() < 0.10 {
			g.body(depth + 1)
		}
		g.bd.Jump(join)
	}
	g.bd.SetBlock(join)
}
