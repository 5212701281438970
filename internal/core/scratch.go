package core

import (
	"math"
	"sync"

	"repro/internal/analysis"
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/parcopy"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// Scratch owns the reusable working state of one translation: the
// storage the analysis cache rebuilds the dominator tree, the def-use index
// and the liveness checker in, the definition table of SSA verification
// and the value array of value numbering, the copy-insertion carriers and
// φ-node lists (a recycled sreedhar.Insertion), the affinity buffer the
// coalescing phase collects into, the coalescer's sort/virtualizer/sharing
// buffers, the congruence classes' arrays and member lists, the
// interference checker's def-point keys, the parallel-copy
// sequentializer's tables, and the rewrite phase's duplicate-destination
// stamps. It mirrors liveness.Scratch: a Scratch may be reused across
// functions of any size (buffers grow and are invalidated per run) but not
// concurrently.
//
// Translate draws a Scratch from a package pool per call; the pipeline
// runner (internal/pipeline) instead holds one per batch worker, or one
// pool-drawn scratch per Pipeline.Run, and threads it through every pass
// of every function it runs, which is what makes steady-state batch
// translation allocation-free (amortized). Nothing handed out by a Scratch
// survives the run that used it: Translation.Release ends the
// translation's involvement, the runner detaches the analysis storage and
// the cache drops what it built there, and the translated function only
// references arena memory owned by the function itself (ir slab
// allocation).
type Scratch struct {
	an   analysis.Storage
	ssa  ssa.Scratch
	ins  sreedhar.Insertion
	affs []sreedhar.Affinity
	par  parcopy.Scratch
	co   coalesce.Scratch
	cong congruence.Pool
	keys interference.DefKeys
	live liveness.Scratch

	// pins collects the pinned variables the coalescing phase groups by
	// register.
	pins []ir.VarID

	// stamp/epoch implement the rewrite phase's per-parallel-copy duplicate
	// destination check without a per-instruction map.
	stamp []uint32
	epoch uint32

	// memoVars snapshots the input's variable identities across a memo
	// materialization (MemoEntry.Materialize), so memo hits on the batch
	// hot path stay allocation-free in steady state.
	memoVars []ir.Var
}

// MemoVarBuf returns the scratch's materialization buffer; the caller must
// store the possibly-grown buffer back with SetMemoVarBuf.
func (sc *Scratch) MemoVarBuf() []ir.Var { return sc.memoVars }

// SetMemoVarBuf stores the materialization buffer back after use.
func (sc *Scratch) SetMemoVarBuf(buf []ir.Var) { sc.memoVars = buf }

// NewScratch returns an empty scratch for explicit reuse across
// translations.
func NewScratch() *Scratch { return &Scratch{} }

// LivenessScratch returns the scratch's liveness worklist working state.
// The batch driver installs it into each function's analysis cache
// (analysis.Cache.SetLivenessScratch) so a worker's liveness
// recomputations reuse worker-private buffers instead of round-tripping
// the liveness package's sync.Pool per computation. Same discipline as
// the rest of the scratch: any number of sequential runs, never two at
// once.
func (sc *Scratch) LivenessScratch() *liveness.Scratch { return &sc.live }

// AnalysisStorage returns the storage the scratch's analyses rebuild in.
// The pipeline runner installs it in a function's analysis cache
// (analysis.Cache.UseStorage) before the function's first pass and
// detaches it after the last, so verification's dominator tree is built
// in the worker's arrays and the translation reuses it.
func (sc *Scratch) AnalysisStorage() *analysis.Storage { return &sc.an }

// SSAScratch returns the memory of SSA verification's definition table and
// value numbering's value array.
func (sc *Scratch) SSAScratch() *ssa.Scratch { return &sc.ssa }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch draws a scratch from the package pool.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a scratch to the package pool. The caller must not use
// it afterwards.
func PutScratch(sc *Scratch) { scratchPool.Put(sc) }

// stampFor returns the duplicate-destination stamp table sized for n
// variables with a fresh epoch.
func (sc *Scratch) stampFor(n int) ([]uint32, uint32) {
	if sc.epoch == math.MaxUint32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	if len(sc.stamp) < n {
		sc.stamp = make([]uint32, n)
	}
	return sc.stamp, sc.epoch
}
