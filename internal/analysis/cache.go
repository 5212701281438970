// Package analysis provides the shared, invalidation-aware analysis cache
// of the pass pipeline. A Cache lazily computes and memoizes the expensive
// substrates of the out-of-SSA translator — dominance, def-use, dataflow
// liveness, the fast liveness checker, and the interference graph — keyed
// per *ir.Func, and invalidates them with the IR's generation counters
// (ir.Func.CFGGen/CodeGen):
//
//   - the dominator tree depends only on the block/edge structure, so it
//     survives instruction-level rewriting (copy insertion, renaming);
//   - def-use, liveness, the liveness checker, and the interference graph
//     additionally depend on the instruction contents.
//
// A pass that mutates the IR but keeps an analysis consistent by hand (the
// virtualized coalescer maintains the def-use index while it materializes
// copies) declares so with Preserve, which revalidates the entry at the
// current generations. Everything else goes stale automatically and is
// recomputed on the next request.
//
// The dominator tree, the def-use index and the liveness checker can be
// built into caller-owned Storage (UseStorage) instead of fresh memory, so
// a batch worker rebuilds them in the same arrays for every function it
// translates.
//
// The Cache is not safe for concurrent use; the batch driver gives each
// worker its own per-function cache.
package analysis

import (
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
)

// Kind identifies one cached analysis.
type Kind uint8

const (
	// Dom is the dominator tree (dom.Build).
	Dom Kind = iota
	// DefUse is the SSA def-use index (ir.NewDefUse).
	DefUse
	// Liveness is dataflow per-block liveness (liveness.ComputeWith).
	Liveness
	// LiveCheck is the CFG-only fast liveness checker (livecheck.New).
	LiveCheck
	// Graph is the interference bit matrix (interference.BuildGraph).
	Graph
	// NumKinds bounds the Kind space.
	NumKinds
)

var kindNames = [...]string{
	Dom:       "dom",
	DefUse:    "defuse",
	Liveness:  "liveness",
	LiveCheck: "livecheck",
	Graph:     "graph",
}

func (k Kind) String() string { return kindNames[k] }

// Storage is reusable memory for the analyses a Cache rebuilds in place:
// one dominator tree, one def-use index and one liveness checker. A Cache
// builds into it while it is installed (UseStorage); the zero value is
// ready to use. It serves one Cache at a time.
type Storage struct {
	dom dom.Tree
	du  ir.DefUse
	lck livecheck.Checker
}

// gens snapshots the function generations an entry was computed at.
type gens struct{ cfg, code uint64 }

// Cache memoizes analyses for one function.
type Cache struct {
	f *ir.Func

	dom   *dom.Tree
	du    *ir.DefUse
	live  *liveness.Info
	lck   *livecheck.Checker
	graph *interference.Graph

	st      *Storage // nil: analyses are built in fresh memory
	at      [NumKinds]gens
	liveBE  liveness.Backend
	liveSc  *liveness.Scratch
	graphMD interference.GraphMode

	// Hits and Misses count, per analysis, requests served from the cache
	// and requests that (re)computed. The pipeline tests assert on them.
	Hits, Misses [NumKinds]uint64
}

// NewCache returns an empty cache for f.
func NewCache(f *ir.Func) *Cache { return &Cache{f: f} }

// now returns the function's current generations.
func (c *Cache) now() gens { return gens{cfg: c.f.CFGGen(), code: c.f.CodeGen()} }

// validCFG reports whether entry k was computed at the current CFG
// generation (sufficient for CFG-only analyses).
func (c *Cache) validCFG(k Kind) bool { return c.at[k].cfg == c.f.CFGGen() }

// valid reports whether entry k matches both current generations.
func (c *Cache) valid(k Kind) bool {
	return c.at[k].cfg == c.f.CFGGen() && c.at[k].code == c.f.CodeGen()
}

// UseStorage makes every later recomputation of the dominator tree, the
// def-use index and the liveness checker rebuild in st's memory; nil
// returns to fresh allocation. Entries already built in the previously
// installed storage are dropped, so nothing the cache hands out afterwards
// points into memory its next user will overwrite. A rebuild empties its
// entry first, so one that panics (the def-use index on non-SSA input)
// leaves nothing half-built for a later request or Preserve to revive.
func (c *Cache) UseStorage(st *Storage) {
	if old := c.st; old != nil && old != st {
		if c.dom == &old.dom {
			c.dom = nil
		}
		if c.du == &old.du {
			c.du = nil
		}
		if c.lck == &old.lck {
			c.lck = nil
		}
	}
	c.st = st
}

// Storage returns the installed storage, or nil when analyses are built
// in fresh memory.
func (c *Cache) Storage() *Storage { return c.st }

// Dom returns the dominator tree, rebuilding it only when the block/edge
// structure changed since it was computed.
func (c *Cache) Dom() *dom.Tree {
	if c.dom != nil && c.validCFG(Dom) {
		c.Hits[Dom]++
		return c.dom
	}
	c.Misses[Dom]++
	if c.st == nil {
		c.dom = dom.Build(c.f)
	} else {
		c.dom = nil
		c.st.dom.Rebuild(c.f)
		c.dom = &c.st.dom
	}
	c.at[Dom] = c.now()
	return c.dom
}

// DefUse returns the def-use index of the current instructions.
func (c *Cache) DefUse() *ir.DefUse {
	if c.du != nil && c.valid(DefUse) {
		c.Hits[DefUse]++
		return c.du
	}
	c.Misses[DefUse]++
	if c.st == nil {
		c.du = ir.NewDefUse(c.f)
	} else {
		c.du = nil
		c.st.du.Rebuild(c.f)
		c.du = &c.st.du
	}
	c.at[DefUse] = c.now()
	return c.du
}

// SetLivenessScratch installs a caller-owned worklist scratch that every
// subsequent Liveness (re)computation runs in, replacing the per-compute
// draw from the liveness package pool; nil reverts to the pool. The batch
// driver threads each worker's private scratch through the contexts it
// creates (and detaches it once the function is done), so per-function
// liveness recomputations stop contending on the global pool. The scratch
// is working state only — no returned Info references it — but it must
// not be shared with a concurrent computation.
func (c *Cache) SetLivenessScratch(sc *liveness.Scratch) { c.liveSc = sc }

// Liveness returns dataflow liveness with the requested backend. Asking for
// a different backend than the cached one recomputes. Every recomputation
// runs in the installed scratch (SetLivenessScratch) or, absent one, draws
// from the liveness package pool, so both the repeated invalidations within
// one function's translation and a batch worker translating thousands of
// functions reuse the same working-state buffers instead of re-allocating
// them per run.
func (c *Cache) Liveness(be liveness.Backend) *liveness.Info {
	if c.live != nil && c.liveBE == be && c.valid(Liveness) {
		c.Hits[Liveness]++
		return c.live
	}
	c.Misses[Liveness]++
	if c.liveSc != nil {
		c.live = liveness.ComputeInto(c.f, be, c.liveSc)
	} else {
		c.live = liveness.ComputeWith(c.f, be)
	}
	c.liveBE = be
	c.at[Liveness] = c.now()
	return c.live
}

// LiveCheck returns the fast liveness checker. Its construction pulls the
// dominator tree and def-use index through the cache, so those requests
// count as hits or misses of their own.
func (c *Cache) LiveCheck() *livecheck.Checker {
	if c.lck != nil && c.valid(LiveCheck) {
		c.Hits[LiveCheck]++
		return c.lck
	}
	c.Misses[LiveCheck]++
	dt := c.Dom()
	du := c.DefUse()
	if c.st == nil {
		c.lck = livecheck.New(c.f, dt, du)
	} else {
		c.lck = nil
		c.st.lck.Rebuild(c.f, dt, du)
		c.lck = &c.st.lck
	}
	c.at[LiveCheck] = c.now()
	return c.lck
}

// GraphWith returns the interference graph for the given mode, pulling
// liveness sets (with the given backend) through the cache. vals is the
// SSA value indexing of ssa.Values and must correspond to the current
// code; a mode change recomputes, and IR mutation invalidates as usual.
func (c *Cache) GraphWith(mode interference.GraphMode, vals []ir.VarID, be liveness.Backend) *interference.Graph {
	if c.graph != nil && c.graphMD == mode && c.valid(Graph) {
		c.Hits[Graph]++
		return c.graph
	}
	c.Misses[Graph]++
	live := c.Liveness(be)
	c.graph = interference.BuildGraph(c.f, live, mode, vals)
	c.graphMD = mode
	c.at[Graph] = c.now()
	return c.graph
}

// Preserve declares that the caller kept analysis k consistent across the
// mutations it performed: the cached entry is revalidated at the current
// generations. Preserving an analysis that was never computed is a no-op.
func (c *Cache) Preserve(k Kind) {
	if c.computed(k) {
		c.at[k] = c.now()
	}
}

// computed reports whether analysis k currently holds a value.
func (c *Cache) computed(k Kind) bool {
	switch k {
	case Dom:
		return c.dom != nil
	case DefUse:
		return c.du != nil
	case Liveness:
		return c.live != nil
	case LiveCheck:
		return c.lck != nil
	case Graph:
		return c.graph != nil
	}
	return false
}
