// Package congruence maintains congruence classes — sets of variables that
// have been coalesced together — and implements the paper's third main
// contribution (Section IV-B): an interference test between two classes
// that performs only a *linear* number of variable-to-variable intersection
// tests, generalizing the dominance forests of Budimlić et al. without ever
// building the forest, and extended to the value-based interference
// definition via "equal intersecting ancestor" chains.
//
// Each class is kept as a list of variables sorted by the pre-DFS order of
// their definition points in the dominator tree. A simulated stack
// traversal of the implicit dominance forest visits the merged lists in
// order; a variable can only intersect an already-visited one if it
// intersects its nearest dominating ancestor or, with value equality in
// play, one of that ancestor's equal-intersecting-ancestor chain.
//
// The traversal skips what cannot matter. A larger-class member that no
// smaller-class member dominates has a same-class parent (or none) and no
// equal-intersecting ancestor in the other class, so visiting it issues no
// test and records nothing. Whenever the stack holds no smaller-class
// member, the larger-class members up to the next smaller-class member are
// therefore pushed unvisited, as one lazy run found by galloping search.
// A later pop examines a run from its end, discarding members that do not
// dominate the current variable; by pre-DFS order such a member dominates
// no later variable either, so the run always yields the nearest dominating
// ancestor the eager traversal would have found. Definitions in
// unreachable blocks break that argument (they share one preorder
// sentinel), sort first, and are visited eagerly. Every member is examined
// at most once per check, so a check costs O(|A|+|B|) in the worst case.
// With S the smaller class and L the larger, the common case costs
// O(|S|·log(|L|/|S|)) plus the members of L that members of S dominate.
// Decisions, intersection tests and equal-intersecting-ancestor chains are
// exactly those of the eager traversal. Merge folds the equal_anc_out of
// the variables the check recorded, not of the whole merged class.
//
// A full coalescing run performs one merge per accepted affinity, so the
// class storage is allocation-conscious: member lists and register labels
// live in root-indexed slices (no map traffic on the hot path), merges
// reuse the backing arrays of the merged lists whenever one has the
// capacity, and retired arrays go to a Pool instead of the garbage
// collector. The per-variable arrays and the traversal scratch come from
// the Pool too: a translator that keeps one Pool per worker (NewIn +
// Retire) sizes them once instead of per function.
package congruence

import (
	"repro/internal/interference"
	"repro/internal/ir"
)

// Classes is a union-find of variables with per-class ordered member lists.
type Classes struct {
	chk *interference.Checker
	arrays

	// pool recycles member-list backing arrays retired by merges and the
	// arrays above. It is private by default; NewIn installs a caller-owned
	// pool so successive translations (and Retire at the end of each)
	// share one set of arrays.
	pool *Pool

	// Tests counts variable-to-variable intersection tests issued by the
	// class-level checks (quadratic vs linear instrumentation).
	Tests int
}

// arrays is the per-translation storage of a Classes: indexed by variable
// (or by class root), plus the scratch of the linear checks.
type arrays struct {
	parent []ir.VarID
	lists  [][]ir.VarID // root → members in pre-DFS def order; nil for singletons

	// reg[r] is the architectural register root r's class is pinned to
	// ("" for none).
	reg []string

	// equalAncIn[v] is the nearest dominating ancestor of v *within v's
	// class* that has the same value and intersects v (paper, Section
	// IV-B); NoVar when none.
	equalAncIn []ir.VarID

	// equalAncOut[v] is v's equal-intersecting ancestor in the other class,
	// computed by the last InterferesLinear and consumed by Merge. It is
	// NoVar except for the variables listed in touched.
	equalAncOut []ir.VarID
	touched     []ir.VarID

	// stack is the reusable dominance-forest traversal stack of the linear
	// checks and of recomputeEqualAnc (one live traversal at a time).
	stack []stackEntry

	// keyed is MergeSingletons' sort buffer.
	keyed []keyedVar
}

// reset sizes the arrays for the variables vars, reusing their capacity,
// and makes every variable a singleton class.
func (a *arrays) reset(vars []*ir.Var) {
	n := len(vars)
	a.parent = ir.Resize(a.parent, n)
	a.lists = ir.Resize(a.lists, n)
	a.equalAncIn = ir.Resize(a.equalAncIn, n)
	a.equalAncOut = ir.Resize(a.equalAncOut, n)
	a.reg = ir.Resize(a.reg, n)
	a.touched = a.touched[:0]
	clear(a.lists)
	for i, v := range vars {
		a.parent[i] = ir.VarID(i)
		a.equalAncIn[i] = ir.NoVar
		a.equalAncOut[i] = ir.NoVar
		a.reg[i] = v.Reg
	}
}

// Pool recycles the storage of Classes: the per-translation arrays of the
// last retired instance and retired member-list backing arrays. One pool
// may serve many Classes instances sequentially (NewIn + Retire); sharing
// it across translations is what keeps steady-state coalescing free of
// per-merge and per-function allocations even though every translation
// starts fresh classes.
type Pool struct {
	arrays arrays
	spare  [][]ir.VarID
}

// put retires a backing array for reuse by later merges.
func (p *Pool) put(a []ir.VarID) {
	if cap(a) == 0 {
		return
	}
	p.spare = append(p.spare, a[:0])
}

// take returns an empty list with capacity at least need, preferring a
// retired backing array over a fresh allocation.
func (p *Pool) take(need int) []ir.VarID {
	for i := len(p.spare) - 1; i >= 0; i-- {
		if cap(p.spare[i]) >= need {
			s := p.spare[i]
			p.spare = append(p.spare[:i], p.spare[i+1:]...)
			return s[:0]
		}
	}
	return make([]ir.VarID, 0, need+need/2+4)
}

// NewIn returns singleton classes over the variable universe of chk, with
// a caller-owned pool feeding the class storage; nil selects a private
// pool. Pair it with Retire to hand the arrays back when the classes are
// done.
func NewIn(chk *interference.Checker, pool *Pool) *Classes {
	if pool == nil {
		pool = &Pool{}
	}
	c := &Classes{chk: chk, arrays: pool.arrays, pool: pool}
	pool.arrays = arrays{}
	c.reset(chk.F.Vars)
	return c
}

// grow extends the universe when virtualization materializes variables.
func (c *Classes) grow() {
	for len(c.parent) < len(c.chk.F.Vars) {
		v := ir.VarID(len(c.parent))
		c.parent = append(c.parent, v)
		c.lists = append(c.lists, nil)
		c.equalAncIn = append(c.equalAncIn, ir.NoVar)
		c.equalAncOut = append(c.equalAncOut, ir.NoVar)
		c.reg = append(c.reg, c.chk.F.Vars[v].Reg)
	}
}

// Find returns the representative of v's class.
func (c *Classes) Find(v ir.VarID) ir.VarID {
	if int(v) >= len(c.parent) {
		c.grow()
	}
	root := v
	for c.parent[root] != root {
		root = c.parent[root]
	}
	for c.parent[v] != root {
		c.parent[v], v = root, c.parent[v]
	}
	return root
}

// SameClass reports whether a and b are already coalesced.
func (c *Classes) SameClass(a, b ir.VarID) bool { return c.Find(a) == c.Find(b) }

// Members returns the class of v in pre-DFS definition order. The slice
// must not be mutated and is only valid until the next merge involving the
// class.
func (c *Classes) Members(v ir.VarID) []ir.VarID {
	root := c.Find(v)
	if l := c.lists[root]; l != nil {
		return l
	}
	return c.parent[root : root+1 : root+1] // a root is its own parent
}

// Reg returns the architectural register the class of v is pinned to, or "".
func (c *Classes) Reg(v ir.VarID) string { return c.reg[c.Find(v)] }

// less orders variables by pre-DFS order of definition points, breaking
// ties (φs of one block, components of one parallel copy) by variable ID.
func (c *Classes) less(a, b ir.VarID) bool {
	if d := c.chk.DefOrder(a, b); d != 0 {
		return d < 0
	}
	return a < b
}

// Retire hands the classes' storage — every live member list and the
// per-translation arrays — back to their pool. The Classes must not be
// used afterwards; the translator calls it once the rewrite phase no
// longer needs class membership, so the next translation reuses the
// arrays.
func (c *Classes) Retire() {
	for i, l := range c.lists {
		if l != nil {
			c.pool.put(l)
			c.lists[i] = nil
		}
	}
	c.pool.arrays = c.arrays
	c.arrays = arrays{}
}
