// Package interference implements the paper's notions of live-range
// intersection and interference (Section III-A):
//
//   - Intersect: the live ranges of a and b share a program point. In SSA
//     this reduces to "the variable whose definition dominates the other's
//     is live just after that other definition" (Budimlić et al.).
//   - Chaitin: a is live at the definition of b and that definition is not
//     a copy between a and b (or symmetrically).
//   - Value-based (the paper's contribution): a and b interfere iff their
//     live ranges intersect *and* V(a) ≠ V(b), where V is the SSA value of
//     package ssa. With this definition the interference relation never has
//     to be updated or rebuilt after coalescing.
//
// Liveness is consumed through the BlockLiveness interface so that the same
// tests run from dataflow liveness sets (package liveness) or from the fast
// liveness checker (package livecheck) — the paper's "LiveCheck" option.
//
// The dominance-based test only pays off when each individual query is
// near-constant (Budimlić et al.), so the hot primitives avoid per-query
// re-derivation: LiveAfter binary-searches the (block, slot)-sorted use
// lists of ir.DefUse instead of scanning them, and DefOrder/DefDominates
// compare packed per-variable def-point keys (preorder<<32|slot, cached in
// the Checker, with a sentinel for "no definition") instead of chasing
// HasDef and DefBlock→PreOrder indirections on every call. The
// pre-optimization derivations live on in export_test.go as the
// differential oracle of the per-query tests.
package interference

import (
	"slices"

	"repro/internal/dom"
	"repro/internal/ir"
)

// BlockLiveness answers block-boundary liveness queries. Both
// liveness.Info and livecheck.Checker satisfy it.
type BlockLiveness interface {
	// LiveInBlock reports whether v is live at entry of block b (φ results
	// of b excluded).
	LiveInBlock(v ir.VarID, b int) bool
	// LiveOutBlock reports whether v is live at exit of block b, φ uses of
	// successors included.
	LiveOutBlock(v ir.VarID, b int) bool
}

// Checker bundles the structures needed for interference queries.
type Checker struct {
	F    *ir.Func
	DT   *dom.Tree
	DU   *ir.DefUse
	Live BlockLiveness
	// Vals is the SSA value of every variable (ssa.Values). It may be nil,
	// in which case value-based queries degrade to pure intersection.
	Vals []ir.VarID

	// Keys, when non-nil, supplies the storage of the def-point key cache
	// below, so a caller running one checker after another reuses one set
	// of arrays; nil makes the checker allocate its own.
	Keys *DefKeys

	// Queries counts the live-range intersection tests performed, for the
	// instrumentation behind the paper's Figure 6 discussion.
	Queries int

	// Cached def-point keys, built lazily on first order/dominance query
	// and extended as the variable universe grows. defKey packs
	// (preorder+1)<<32 | slot so one uint64 comparison decides DefOrder,
	// and is noDef for a variable without a definition, which sorts it
	// last; its preorder half and defPost answer block-level dominance
	// without going through DefBlock. The virtualized translator
	// invalidates moved definitions with DefMoved.
	defKey  []uint64
	defPost []int32
}

// noDef is the def-point key of a variable without a definition: above
// every (preorder+1)<<32 | slot key, so such variables sort last.
const noDef = ^uint64(0)

// DefKeys is reusable storage for a Checker's def-point key cache. It may
// serve any number of checkers one after another, never two at once: a
// checker that adopts it overwrites the keys of the previous one.
type DefKeys struct {
	key  []uint64
	post []int32
}

// Value returns V(v), or v itself when no value information is installed.
func (c *Checker) Value(v ir.VarID) ir.VarID {
	if c.Vals == nil {
		return v
	}
	return c.Vals[v]
}

// ensureKeys extends the cached def-point keys to the current variable
// universe. It is a length check, cheap enough to inline into every
// order and dominance query; growKeys does the work.
func (c *Checker) ensureKeys() {
	if len(c.defKey) < len(c.F.Vars) {
		c.growKeys()
	}
}

// growKeys computes keys for the variables added since the last call. The
// first call adopts the arrays of Keys, and every growth stores them back
// there.
func (c *Checker) growKeys() {
	have, n := len(c.defKey), len(c.F.Vars)
	if have == 0 && c.Keys != nil {
		c.defKey, c.defPost = c.Keys.key[:0], c.Keys.post[:0]
	}
	c.defKey = slices.Grow(c.defKey, n-have)[:n]
	c.defPost = slices.Grow(c.defPost, n-have)[:n]
	for v := have; v < n; v++ {
		c.refreshKey(ir.VarID(v))
	}
	if c.Keys != nil {
		c.Keys.key, c.Keys.post = c.defKey, c.defPost
	}
}

// refreshKey recomputes the cached def-point key of v from DU and DT.
func (c *Checker) refreshKey(v ir.VarID) {
	if !c.DU.HasDef(v) {
		c.defKey[v] = noDef
		c.defPost[v] = -1
		return
	}
	db := c.DU.DefBlock(v)
	c.defPost[v] = c.DT.PostOrder(db)
	c.defKey[v] = uint64(uint32(c.DT.PreOrder(db)+1))<<32 | uint64(uint32(c.DU.DefSlot(v)))
}

// DefMoved tells the checker that the definition point of v changed (or was
// just created) — the virtualized translator calls it after ReplaceDef /
// AddDef so the packed keys stay in sync with the def-use index.
func (c *Checker) DefMoved(v ir.VarID) {
	c.ensureKeys()
	c.refreshKey(v)
}

// LiveAfter reports whether v is live immediately after the instruction at
// the given slot of block b — after the instruction's reads and writes.
// Uses of v at that very slot do not keep it alive past the slot.
func (c *Checker) LiveAfter(v ir.VarID, b int, slot int32) bool {
	if !c.DU.HasDef(v) {
		return false
	}
	db, ds := c.DU.DefBlock(v), c.DU.DefSlot(v)
	if db == b {
		if ds > slot {
			return false // defined later in the block
		}
	} else if !c.DT.Dominates(db, b) {
		return false // definition does not reach the block
	}
	if c.DU.UsedInBlockAfter(v, b, slot) {
		return true
	}
	return c.Live.LiveOutBlock(v, b)
}

// DefOrder compares the definition points of a and b in the pre-DFS order
// of the dominator tree: negative when def(a) precedes def(b), 0 when the
// points coincide (components of one parallel copy or φs of one block).
// Variables without a definition sort last.
func (c *Checker) DefOrder(a, b ir.VarID) int {
	c.ensureKeys()
	switch ka, kb := c.defKey[a], c.defKey[b]; {
	case ka < kb:
		return -1
	case ka > kb:
		return 1
	case ka == noDef:
		return int(a) - int(b)
	}
	return 0
}

// DefDominates reports whether the definition point of a dominates the
// definition point of b (reflexively at equal points).
func (c *Checker) DefDominates(a, b ir.VarID) bool {
	c.ensureKeys()
	ka, kb := c.defKey[a], c.defKey[b]
	if ka == noDef || kb == noDef {
		return false
	}
	if ka>>32 == kb>>32 {
		// Same preorder number means same block — except for the shared
		// "unreachable" sentinel, where block identity must be rechecked.
		if ka>>32 == 0 && c.DU.DefBlock(a) != c.DU.DefBlock(b) {
			return false
		}
		return ka <= kb // slot comparison: the preorder halves are equal
	}
	// The preorders differ: a's must come first and b's postorder fall
	// inside a's subtree. An unreachable a (postorder -1) dominates nothing.
	return ka < kb && c.defPost[b] <= c.defPost[a]
}

// UnreachableDef reports whether v is defined in a block the entry does
// not reach.
func (c *Checker) UnreachableDef(v ir.VarID) bool {
	c.ensureKeys()
	return c.defKey[v]>>32 == 0 // the preorder half of an unreachable block is 0
}

// Intersect reports whether the live ranges of a and b share a point.
// By the SSA dominance property this holds iff the variable whose
// definition dominates the other's is live just after that definition.
func (c *Checker) Intersect(a, b ir.VarID) bool {
	if a == b {
		return true
	}
	c.Queries++
	if !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	switch {
	case c.DefDominates(b, a) && !c.DefDominates(a, b):
		a, b = b, a // make a the dominating one
	case c.DefDominates(a, b):
		// already ordered; equal points also land here
	default:
		return false // neither definition dominates the other
	}
	return c.LiveAfter(a, c.DU.DefBlock(b), c.DU.DefSlot(b)) &&
		c.LiveAfter(b, c.DU.DefBlock(b), c.DU.DefSlot(b))
}

// Interferes implements the paper's value-based interference: intersecting
// live ranges with different values.
func (c *Checker) Interferes(a, b ir.VarID) bool {
	if a == b {
		return false
	}
	if c.Vals != nil && c.Vals[a] == c.Vals[b] {
		return false
	}
	return c.Intersect(a, b)
}

// ChaitinInterferes implements Chaitin's conservative test: one variable is
// live at the definition point of the other and that definition is not a
// copy between the two.
func (c *Checker) ChaitinInterferes(a, b ir.VarID) bool {
	if a == b || !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	// This is an intersection test at b's (or a's) definition point, just
	// like Intersect — it must count toward Stats.IntersectionTests, or the
	// Chaitin strategy reports zero Figure 6 queries.
	c.Queries++
	if c.DefDominates(b, a) && !c.DefDominates(a, b) {
		a, b = b, a
	} else if !c.DefDominates(a, b) {
		return false
	}
	// a's definition dominates b's: they can only meet at b's definition.
	db, ds := c.DU.DefBlock(b), c.DU.DefSlot(b)
	if !c.LiveAfter(a, db, ds) || !c.LiveAfter(b, db, ds) {
		return false
	}
	if in := c.DU.DefInstr(b); in != nil && (in.IsCopyOf(b, a) || in.IsCopyOf(a, b)) {
		return false
	}
	return true
}
