// Package core is the paper's out-of-SSA translator (Boissinot, Darte,
// Rastello, Dupont de Dinechin, Guillon — "Revisiting Out-of-SSA
// Translation for Correctness, Code Quality, and Efficiency", CGO 2009).
//
// The translation has four conceptual phases (Section III):
//
//  1. insert parallel copies for all φ-functions (Method I of Sreedhar et
//     al.) and coalesce each φ's fresh variables into a φ-node — this alone
//     makes the translation correct;
//  2. compute the value-based interference relation, using the SSA value
//     V(x) that comes for free from copy chains;
//  3. coalesce aggressively, φ-related copies and register-renaming copies
//     alike, driven by affinity weights;
//  4. sequentialize the remaining parallel copies optimally.
//
// Options select the engineering variants benchmarked in the paper:
// virtualization of the copy insertion (Method III style), interference
// graph versus direct checks (InterCheck), dataflow liveness sets versus
// fast liveness checking (LiveCheck), and the quadratic versus linear
// congruence-class interference test (Linear). Correctness never depends on
// the options; only speed, memory footprint, and — across the Figure 5
// strategies — the number of remaining copies do.
package core

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// Strategy is the coalescing strategy: the seven variants of Figure 5.
type Strategy int

const (
	// Intersect coalesces only classes with disjoint live ranges.
	Intersect Strategy = iota
	// SreedharI adds Sreedhar's exemption of the copy pair itself.
	SreedharI
	// Chaitin uses Chaitin's copy-aware conservative interference.
	Chaitin
	// Value uses the paper's value-based interference.
	Value
	// SreedharIII virtualizes the copy insertion with intersection-based
	// interference (the paper's baseline, Method III of Sreedhar et al.).
	SreedharIII
	// ValueIS is Value plus the per-φ greedy independent-set search.
	ValueIS
	// Sharing is ValueIS plus the copy-sharing post-pass.
	Sharing
	// Optimistic is an extension beyond the paper's Figure 5: Budimlić-style
	// optimistic coalescing followed by de-coalescing of interfering
	// classes, with value-based interference (the combination the paper's
	// conclusion describes as orthogonal and compatible).
	Optimistic
)

var strategyNames = [...]string{
	Intersect:   "Intersect",
	SreedharI:   "Sreedhar I",
	Chaitin:     "Chaitin",
	Value:       "Value",
	SreedharIII: "Sreedhar III",
	ValueIS:     "Value+IS",
	Sharing:     "Sharing",
	Optimistic:  "Optimistic",
}

func (s Strategy) String() string { return strategyNames[s] }

// Strategies lists all Figure 5 variants in presentation order.
var Strategies = []Strategy{Intersect, SreedharI, Chaitin, Value, SreedharIII, ValueIS, Sharing}

// Options configure the translator.
type Options struct {
	// Strategy selects the coalescing variant (Figure 5). SreedharIII
	// requires Virtualize (Validate rejects it without); the façade's
	// WithStrategy sets both.
	Strategy Strategy
	// Virtualize emulates the φ-copies and materializes only the ones that
	// fail to coalesce ("Us III"; Section IV-C). Without it, all copies are
	// inserted up front ("Us I").
	Virtualize bool
	// UseGraph builds an interference graph (half-size bit matrix) and
	// answers pair queries from it. Incompatible with LiveCheck (the graph
	// construction needs liveness sets). Disabling it is the paper's
	// "InterCheck" option.
	UseGraph bool
	// LiveCheck replaces dataflow liveness sets by the CFG-only fast
	// liveness checker (Section IV-A).
	LiveCheck bool
	// Linear uses the linear-time congruence-class interference test
	// (Section IV-B) instead of the quadratic all-pairs test.
	Linear bool
	// OrderedSets stores liveness sets as sorted slices instead of bit
	// vectors — the representation measured by the paper (Figure 7). It is
	// slower; results are identical. Meaningless with LiveCheck.
	OrderedSets bool
	// SplitCriticalEdges splits every critical edge before translation.
	// The paper discusses this alternative on the lost-copy problem
	// (Figure 4): with the back edge split, u no longer interferes with x2
	// and a different copy placement becomes possible. It trades extra
	// blocks (and jumps) for coalescing freedom.
	SplitCriticalEdges bool
	// KeepParallelCopies skips phase 4 (sequentialization), leaving
	// OpParCopy instructions in the output; used by tests that inspect the
	// parallel form.
	KeepParallelCopies bool
}

// Validate rejects inconsistent option combinations.
func (o *Options) Validate() error {
	if o.UseGraph && o.LiveCheck {
		return fmt.Errorf("core: UseGraph needs liveness sets; it cannot be combined with LiveCheck")
	}
	if o.OrderedSets && o.LiveCheck {
		return fmt.Errorf("core: OrderedSets selects a liveness-set representation; LiveCheck has no sets")
	}
	if o.Strategy == SreedharIII && !o.Virtualize {
		return fmt.Errorf("core: the SreedharIII strategy requires Virtualize")
	}
	if o.Strategy == Optimistic && o.Virtualize {
		return fmt.Errorf("core: Optimistic de-coalescing needs the full copy set; it cannot be virtualized")
	}
	return nil
}

// Stats reports what the translation did and what it cost; the benchmark
// harness derives Figures 5-7 from it.
type Stats struct {
	Blocks, Vars, Phis int
	// Affinities counts all candidate copies: φ-related (virtual or real)
	// plus pre-existing register-constraint copies.
	Affinities      int
	RemainingCopies int     // copies left after coalescing (parallel pairs)
	RemainingWeight float64 // frequency-weighted remaining copies
	SharedRemoved   int     // copies removed by the sharing post-pass
	FinalCopies     int     // sequential copy instructions in the output
	CycleCopies     int     // extra copies inserted to break cycles
	SplitEdges      int     // edges split by the correctness pre-passes
	CleanedBlocks   int     // degenerate jump blocks removed afterwards

	// Machinery instrumentation.
	IntersectionTests int // variable-pair live-range intersection tests
	MaterializedVars  int // primed variables introduced

	// Per-phase wall-clock time: correctness pre-passes + copy insertion,
	// analyses (dominance, def-use, values, liveness/livecheck, graph),
	// coalescing, and the rewrite/sequentialization.
	InsertNanos, AnalyzeNanos, CoalesceNanos, RewriteNanos int64

	// Memory footprint, measured (bytes actually held by the structures)
	// and evaluated with the paper's perfect-memory formulas (Figure 7).
	GraphBytes, GraphEval         int
	LiveSetBytes, LiveSetEval     int // ordered-set representation
	LiveSetBitEval                int // bit-set formula
	LiveCheckBytes, LiveCheckEval int
}

// Accumulate adds every deterministic counter of st into dst. The wall-
// clock fields (InsertNanos …) are per-translation diagnostics and are
// deliberately excluded, so aggregates over a function set are identical
// regardless of scheduling — the batch driver relies on this.
func (dst *Stats) Accumulate(st *Stats) {
	dst.Blocks += st.Blocks
	dst.Vars += st.Vars
	dst.Phis += st.Phis
	dst.Affinities += st.Affinities
	dst.RemainingCopies += st.RemainingCopies
	dst.RemainingWeight += st.RemainingWeight
	dst.SharedRemoved += st.SharedRemoved
	dst.FinalCopies += st.FinalCopies
	dst.CycleCopies += st.CycleCopies
	dst.SplitEdges += st.SplitEdges
	dst.CleanedBlocks += st.CleanedBlocks
	dst.IntersectionTests += st.IntersectionTests
	dst.MaterializedVars += st.MaterializedVars
	dst.GraphBytes += st.GraphBytes
	dst.GraphEval += st.GraphEval
	dst.LiveSetBytes += st.LiveSetBytes
	dst.LiveSetEval += st.LiveSetEval
	dst.LiveSetBitEval += st.LiveSetBitEval
	dst.LiveCheckBytes += st.LiveCheckBytes
	dst.LiveCheckEval += st.LiveCheckEval
}

// Translation is an in-flight out-of-SSA translation of one function,
// decomposed into the paper's four conceptual phases. Each phase is a
// method so a pass manager can drive the phases as individual passes,
// sharing the analyses through an invalidation-aware cache:
//
//	t, _ := NewTranslation(f, opt, cache)
//	t.Insert(); t.Analyze(); t.Coalesce(); t.Rewrite()
//
// Translate runs all four back to back. The phases must run in order,
// exactly once each; a phase called out of order returns an error.
type Translation struct {
	F     *ir.Func
	Opt   Options
	Stats *Stats
	// An caches the analyses the phases consume. The Analyze phase warms
	// dominance, def-use, and the liveness oracle; Coalesce and Rewrite
	// pull them from the cache again (hits), and Coalesce revalidates the
	// def-use index it maintains while materializing virtualized copies.
	An *analysis.Cache

	// sc is the pooled working state of the translation. Insert draws one
	// from the package pool unless SetScratch installed a caller-owned
	// scratch first (the batch driver threads one per worker), and installs
	// its analysis storage in An unless An already builds into a storage
	// (the pipeline runner installs the worker's for a function's whole
	// run); Release, at the end of Rewrite, detaches the storage it
	// installed and returns pool-drawn scratches.
	sc         *Scratch
	pooled     bool
	ownStorage bool

	stage int // next phase to run: 0 insert, 1 analyze, 2 coalesce, 3 rewrite, 4 done

	// Intermediates handed from phase to phase.
	vals    []ir.VarID
	live    *liveness.Info     // nil under LiveCheck
	lck     *livecheck.Checker // nil unless LiveCheck
	graph   *interference.Graph
	ins     *sreedhar.Insertion
	affs    []sreedhar.Affinity
	chk     *interference.Checker
	classes *congruence.Classes
	res     *coalesce.Result
}

// NewTranslation validates opt and prepares a translation of f. an may be
// nil, in which case a private cache is created; passing a shared cache
// lets surrounding passes (SSA verification, register allocation) reuse
// the same analyses.
func NewTranslation(f *ir.Func, opt Options, an *analysis.Cache) (*Translation, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if an == nil {
		an = analysis.NewCache(f)
	}
	return &Translation{F: f, Opt: opt, Stats: &Stats{}, An: an}, nil
}

// SetScratch installs a caller-owned Scratch the translation will work in;
// it must be called before Insert. The caller keeps ownership: the scratch
// is reusable (not concurrently) for the next translation as soon as the
// translation is released — by Rewrite, or by Release after a failed
// phase.
func (t *Translation) SetScratch(sc *Scratch) {
	t.sc = sc
	t.pooled = false
}

// attachScratch attaches a pool-drawn scratch when none was installed and,
// unless the analysis cache already builds into a storage its caller
// owns, makes it build into the scratch's.
func (t *Translation) attachScratch() {
	if t.sc == nil {
		t.sc = GetScratch()
		t.pooled = true
	}
	if t.An.Storage() == nil {
		t.An.UseStorage(&t.sc.an)
		t.ownStorage = true
	}
}

// Release ends the translation's use of its scratch: the analysis cache
// drops the analyses it built in the storage the translation installed
// (a storage the caller installed stays, and the caller detaches it), the
// translation drops its own references into the scratch, the grown
// affinity buffer and the congruence storage go back to the scratch, and
// a pool-drawn scratch returns to the pool. Rewrite releases on success. A
// caller whose translation failed in an earlier phase must call Release
// before the scratch serves another translation, and before the cache or
// the translation escapes. Further calls do nothing.
func (t *Translation) Release() {
	if t.sc == nil {
		return
	}
	if t.ownStorage {
		t.An.UseStorage(nil)
		t.ownStorage = false
	}
	t.sc.affs = t.affs[:0]
	t.affs = nil
	t.ins = nil
	if t.classes != nil {
		t.classes.Retire()
	}
	t.vals, t.lck, t.chk, t.classes = nil, nil, nil, nil
	if t.pooled {
		PutScratch(t.sc)
	}
	t.sc = nil
}

// backend returns the liveness-set representation the options select.
func (t *Translation) backend() liveness.Backend {
	if t.Opt.OrderedSets {
		return liveness.OrderedSets
	}
	return liveness.Bitsets
}

// enter checks phase ordering and starts the phase timer.
func (t *Translation) enter(stage int, name string) (time.Time, error) {
	if t.stage != stage {
		return time.Time{}, fmt.Errorf("core: phase %s run out of order (stage %d)", name, t.stage)
	}
	t.stage++
	return time.Now(), nil
}

// Insert is phase 1: the correctness pre-passes (Section II-A) plus copy
// insertion — real parallel copies (Method I) or empty carriers for the
// virtualized translation (Method III style).
func (t *Translation) Insert() error {
	start, err := t.enter(0, "insert")
	if err != nil {
		return err
	}
	t.attachScratch()
	f, st := t.F, t.Stats

	// Normalize duplicate-pred edges and split edges whose φ argument is
	// defined by the predecessor's terminator (the Br_dec case of Figure 2,
	// where copy insertion alone cannot split the live range).
	st.SplitEdges += len(sreedhar.SplitDuplicatePredEdges(f))
	st.SplitEdges += len(sreedhar.SplitBranchDefEdges(f))
	if t.Opt.SplitCriticalEdges {
		st.SplitEdges += splitAllCritical(f)
	}

	for _, b := range f.Blocks {
		st.Phis += len(b.Phis)
	}
	st.Blocks = len(f.Blocks)

	t.ins = &t.sc.ins
	t.ins.Reset(len(f.Blocks))
	if t.Opt.Virtualize {
		sreedhar.PrepareParallelCopies(f, t.ins)
	} else {
		if err := sreedhar.InsertCopiesInto(f, t.ins); err != nil {
			return err
		}
	}
	// Copy insertion edits instruction lists in place (ir.InsertBefore has
	// no *Func receiver to bump the counter itself).
	f.MarkCodeMutated()

	st.InsertNanos += time.Since(start).Nanoseconds()
	return nil
}

// Analyze is phase 2: compute the substrates of the value-based
// interference relation — dominance, def-use, SSA values, the liveness
// oracle (dataflow sets or the fast checker), and, when requested, the
// interference graph. Everything is pulled through the analysis cache so
// later phases, and surrounding passes, share the results.
func (t *Translation) Analyze() error {
	start, err := t.enter(1, "analyze")
	if err != nil {
		return err
	}
	f := t.F

	dt := t.An.Dom()
	t.An.DefUse()
	t.vals = ssa.ValuesIn(f, dt, &t.sc.ssa)
	if t.Opt.LiveCheck {
		t.lck = t.An.LiveCheck()
	} else {
		t.live = t.An.Liveness(t.backend())
	}
	if t.Opt.UseGraph {
		t.graph = t.An.GraphWith(graphMode(t.Opt.Strategy), t.vals, t.backend())
	}

	t.Stats.AnalyzeNanos += time.Since(start).Nanoseconds()
	return nil
}

// oracle returns the block-liveness view phase 3 queries — the cache serves
// the instance phase 2 computed.
func (t *Translation) oracle() interference.BlockLiveness {
	if t.Opt.LiveCheck {
		return t.An.LiveCheck()
	}
	return t.An.Liveness(t.backend())
}

// Coalesce is phase 3: aggressive coalescing of φ-related and
// register-renaming copies alike, driven by affinity weights, with the
// congruence classes answering interference queries through the cached
// analyses. Under virtualization the φ copies are emulated and only the
// ones that fail to coalesce are materialized; the def-use index is kept
// consistent throughout and revalidated in the cache.
func (t *Translation) Coalesce() error {
	start, err := t.enter(2, "coalesce")
	if err != nil {
		return err
	}
	f, st, opt := t.F, t.Stats, t.Opt

	t.chk = &interference.Checker{
		F: f, DT: t.An.Dom(), DU: t.An.DefUse(), Live: t.oracle(), Vals: t.vals,
		Keys: &t.sc.keys,
	}
	t.classes = congruence.NewIn(t.chk, &t.sc.cong)
	t.sc.pins = precoalescePinned(f, t.classes, t.sc.pins)
	m := &coalesce.Machinery{Chk: t.chk, Classes: t.classes, Graph: t.graph, Linear: opt.Linear, Scratch: &t.sc.co}

	t.affs = t.sc.affs[:0]
	// φ-nodes of Method I are coalesced by construction (Lemma 1).
	if !opt.Virtualize {
		for _, node := range t.ins.PhiNodes {
			t.classes.MergeSingletons(node)
		}
		t.affs = append(t.affs, t.ins.Affinities...)
	}
	t.affs = sreedhar.CollectRealCopiesInto(f, t.ins, t.affs)

	if opt.Virtualize {
		vz := &coalesce.Virtualizer{M: m, Ins: t.ins, Variant: engineVariant(opt.Strategy), Live: t.live}
		vres := vz.Run(f)
		// Register-constraint and leftover copies: Sreedhar III complements
		// virtualization with the SSA-based coalescing of Method I for
		// them; our variants use the value-based rule.
		nonPhi := engineVariant(opt.Strategy)
		if opt.Strategy == SreedharIII {
			nonPhi = coalesce.SreedharI
		}
		t.res = coalesce.Run(m, t.affs, nonPhi, false)
		t.affs = append(t.affs, vres.Materialized...)
		for range vres.Materialized {
			t.res.Statuses = append(t.res.Statuses, coalesce.Remaining)
		}
		st.MaterializedVars = len(vres.Materialized)
		st.Affinities = len(t.affs) + vres.Removed
	} else if opt.Strategy == Optimistic {
		t.res = coalesce.RunOptimistic(m, t.affs)
		st.Affinities = len(t.affs)
	} else {
		groupPhis := opt.Strategy == ValueIS || opt.Strategy == Sharing
		t.res = coalesce.Run(m, t.affs, engineVariant(opt.Strategy), groupPhis)
		st.Affinities = len(t.affs)
	}
	if opt.Strategy == Sharing {
		st.SharedRemoved = coalesce.Share(m, t.affs, t.res)
	}

	// Materialization minted fresh variables but kept the def-use index
	// consistent (AddDef/AddUse); tell the cache the index is still good.
	t.An.Preserve(analysis.DefUse)

	st.CoalesceNanos += time.Since(start).Nanoseconds()

	// Tally remaining copies (parallel pairs before sequentialization).
	for i, s := range t.res.Statuses {
		if s == coalesce.Remaining {
			st.RemainingCopies++
			st.RemainingWeight += t.affs[i].Weight
		}
	}
	return nil
}

// Rewrite is phase 4: leave CSSA — rename to class representatives, drop
// φ-functions and coalesced copies, sequentialize the remaining parallel
// copies optimally, fold degenerate jump blocks back, and verify.
func (t *Translation) Rewrite() error {
	start, err := t.enter(3, "rewrite")
	if err != nil {
		return err
	}
	f, st := t.F, t.Stats

	rewrite(f, t.classes, t.An.DefUse(), t.affs, t.res.Statuses, t.Opt.KeepParallelCopies, st, t.sc)
	f.MarkCodeMutated() // renaming edits operands in place

	// Pessimistically split edges whose copies all coalesced away leave a
	// lone jump behind; fold those blocks back.
	st.CleanedBlocks = ir.CleanupJumpBlocks(f)
	st.RewriteNanos += time.Since(start).Nanoseconds()

	st.Vars = len(f.Vars)
	fillFootprint(st, f, t.graph, t.live, t.lck)
	st.IntersectionTests = t.chk.Queries
	t.Release()
	if err := ir.Verify(f); err != nil {
		return fmt.Errorf("core: translated function fails verification: %w", err)
	}
	return nil
}

// CoalesceResult exposes the per-affinity coalescing decisions of the
// Coalesce phase (nil before it ran). The differential tests compare it
// between pooled and fresh-scratch translations.
func (t *Translation) CoalesceResult() *coalesce.Result { return t.res }

// Translate rewrites f, which must be in strict SSA form, into equivalent
// φ-free standard code, returning the statistics of the run. f is mutated
// in place.
func Translate(f *ir.Func, opt Options) (*Stats, error) {
	return TranslateWith(f, opt, nil)
}

// TranslateWith is Translate with a caller-provided analysis cache, so the
// translation shares dominance, def-use, and liveness with surrounding
// passes. an may be nil.
func TranslateWith(f *ir.Func, opt Options, an *analysis.Cache) (*Stats, error) {
	return TranslateInto(f, opt, an, nil)
}

// TranslateInto is TranslateWith with an explicit, caller-owned Scratch —
// batch drivers hand every function translated by one worker the same
// scratch. sc may be nil, in which case the translation draws one from the
// package pool for its own duration.
func TranslateInto(f *ir.Func, opt Options, an *analysis.Cache, sc *Scratch) (*Stats, error) {
	t, err := NewTranslation(f, opt, an)
	if err != nil {
		return nil, err
	}
	if sc != nil {
		t.SetScratch(sc)
	}
	for _, phase := range []func() error{t.Insert, t.Analyze, t.Coalesce, t.Rewrite} {
		if err := phase(); err != nil {
			// A failed phase must not strand a pool-drawn scratch or the
			// grown buffers a caller-owned one would get back at the end of
			// Rewrite.
			t.Release()
			return t.Stats, err
		}
	}
	return t.Stats, nil
}

// engineVariant maps a strategy to the class-level interference predicate.
func engineVariant(s Strategy) coalesce.Variant {
	switch s {
	case Intersect, SreedharIII:
		return coalesce.Intersect
	case SreedharI:
		return coalesce.SreedharI
	case Chaitin:
		return coalesce.Chaitin
	default:
		return coalesce.Value
	}
}

// graphMode maps a strategy to the relation stored in the bit matrix.
func graphMode(s Strategy) interference.GraphMode {
	switch s {
	case Intersect, SreedharI, SreedharIII:
		return interference.ModeIntersect
	case Chaitin:
		return interference.ModeChaitin
	default:
		return interference.ModeValue
	}
}

// splitAllCritical splits every critical edge of f.
func splitAllCritical(f *ir.Func) int {
	n := 0
	blocks := f.Blocks // splits append; iterate the original slice
	for _, b := range blocks {
		for _, s := range append([]*ir.Block(nil), b.Succs...) {
			if ir.IsCriticalEdge(b, s) {
				ir.SplitEdge(f, b, s)
				n++
			}
		}
	}
	return n
}

// precoalescePinned merges all variables pinned to one architectural
// register into a single labeled class (Section III-D), rooted at the
// group's lowest variable. Almost every function carries pins (1,242 of
// the 1,248 functions perfbench's batch-suite rotates through at seed 5),
// so the groups come from one stable sort of the pinned variables by
// register in the caller's buffer pins, not from a per-function map, and
// each group is built in one pass. It returns the possibly grown buffer.
func precoalescePinned(f *ir.Func, classes *congruence.Classes, pins []ir.VarID) []ir.VarID {
	pins = pins[:0]
	for i, v := range f.Vars {
		if v.Reg != "" {
			pins = append(pins, ir.VarID(i))
		}
	}
	slices.SortStableFunc(pins, func(a, b ir.VarID) int {
		return strings.Compare(f.Vars[a].Reg, f.Vars[b].Reg)
	})
	for lo := 0; lo < len(pins); {
		hi := lo + 1
		for hi < len(pins) && f.Vars[pins[hi]].Reg == f.Vars[pins[lo]].Reg {
			hi++
		}
		classes.MergeSingletons(pins[lo:hi])
		lo = hi
	}
	return pins
}

// fillFootprint records measured and evaluated memory footprints.
func fillFootprint(st *Stats, f *ir.Func, g *interference.Graph, live *liveness.Info, lck *livecheck.Checker) {
	nv, nb := len(f.Vars), len(f.Blocks)
	if g != nil {
		st.GraphBytes = g.AllocatedBytes()
		st.GraphEval = (nv + 7) / 8 * nv / 2
	}
	if live != nil {
		st.LiveSetBytes = live.Bytes()
		st.LiveSetEval = live.OrderedBytes()
		st.LiveSetBitEval = liveness.BitsetBytes(nv, nb)
	}
	if lck != nil {
		st.LiveCheckBytes = lck.Bytes()
		st.LiveCheckEval = livecheck.EvaluatedBytes(nb)
	}
}
