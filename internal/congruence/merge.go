package congruence

import (
	"cmp"
	"slices"

	"repro/internal/ir"
)

// Merge coalesces the classes of a and b. It must be called right after an
// InterferesLinear(a, b) call that returned false: the equal-intersecting-
// ancestor information computed during that check is folded into the merged
// class (paper: "the equal intersecting ancestor for the combined set is
// updated to the maximum, following the pre-DFS order, of equal_anc_in and
// equal_anc_out"). Only the variables the check recorded an equal_anc_out
// for can change.
func (c *Classes) Merge(a, b ir.VarID) ir.VarID {
	ra, rb := c.roots(a, b)
	if ra == rb {
		return ra
	}
	for _, v := range c.touched {
		c.equalAncIn[v] = c.maxPre(c.equalAncIn[v], c.equalAncOut[v])
	}
	return c.link(ra, rb, c.mergeRoots(ra, rb))
}

// MergeForced coalesces two classes unconditionally — used for the φ-node
// classes of Method I (whose members are coalesced by construction) and for
// pre-coalescing variables pinned to the same register. The equal-
// intersecting-ancestor chains of the merged class are recomputed with one
// stack traversal.
func (c *Classes) MergeForced(a, b ir.VarID) ir.VarID {
	ra, rb := c.roots(a, b)
	if ra == rb {
		return ra
	}
	merged := c.mergeRoots(ra, rb)
	c.recomputeEqualAnc(merged)
	return c.link(ra, rb, merged)
}

// MergeSingletons coalesces the singleton classes of vs into one class
// rooted at vs[0], with the register label of its members — the φ-nodes of
// Method I and the groups of variables pinned to one register, whose
// members are coalesced by construction. It builds in one pass the class
// that MergeForced(vs[0], vs[i]) for every later member builds: the
// members are sorted once by the checker's packed def key then variable ID
// (the order less defines), linked under vs[0], and the equal-
// intersecting-ancestor chains are computed with one stack traversal
// instead of one per merge. A member that is not a singleton class, or
// appears twice, can only come from a bug in the caller; it panics, as
// does a pair of members pinned to different registers.
func (c *Classes) MergeSingletons(vs []ir.VarID) ir.VarID {
	root := vs[0]
	keyed := c.keyed[:0]
	reg := ""
	for i, v := range vs {
		if c.Find(v) != v || c.lists[v] != nil || i > 0 && v == root {
			panic("congruence: forced class member " + c.chk.F.VarName(v) + " is not a singleton class")
		}
		if r := c.reg[v]; r != "" {
			if reg != "" && reg != r {
				panic("congruence: cannot merge classes pinned to different registers " + reg + " and " + r)
			}
			reg = r
			c.reg[v] = ""
		}
		if i > 0 {
			c.parent[v] = root
		}
		keyed = append(keyed, keyedVar{c.chk.DefKey(v), v})
	}
	c.reg[root] = reg
	c.keyed = keyed
	if len(vs) == 1 {
		return root
	}
	slices.SortFunc(keyed, func(x, y keyedVar) int {
		if x.key != y.key {
			return cmp.Compare(x.key, y.key)
		}
		return cmp.Compare(x.v, y.v)
	})
	list := c.takeList(len(keyed))
	for _, k := range keyed {
		list = append(list, k.v)
	}
	c.lists[root] = list
	c.recomputeEqualAnc(list)
	return root
}

// keyedVar is a variable with its packed def-point key, the sort record of
// MergeSingletons.
type keyedVar struct {
	key uint64
	v   ir.VarID
}

// MergeSimple coalesces two classes without maintaining the equal-
// intersecting-ancestor chains. It is the merge used by the quadratic
// machinery variants, which never consult the chains.
func (c *Classes) MergeSimple(a, b ir.VarID) ir.VarID {
	ra, rb := c.roots(a, b)
	if ra == rb {
		return ra
	}
	return c.link(ra, rb, c.mergeRoots(ra, rb))
}

// roots returns the roots of the classes of a and b, the larger class's
// first (union by size; a tie puts a's first).
func (c *Classes) roots(a, b ir.VarID) (ir.VarID, ir.VarID) {
	ra, rb := c.Find(a), c.Find(b)
	if len(c.Members(ra)) < len(c.Members(rb)) {
		return rb, ra
	}
	return ra, rb
}

// link performs the union-find merge of root rb into root ra with the
// merged member list, propagating register labels. Two classes pinned to
// *different* architectural registers must never be merged — the class
// predicates treat such pairs as interfering, so reaching link with
// conflicting pins is a force-merge bug that would silently retarget one
// register's variables to the other; it panics instead.
func (c *Classes) link(ra, rb ir.VarID, merged []ir.VarID) ir.VarID {
	if rr := c.reg[rb]; rr != "" {
		if ar := c.reg[ra]; ar != "" && ar != rr {
			panic("congruence: cannot merge classes pinned to different registers " +
				ar + " and " + rr)
		}
		c.reg[ra] = rr
		c.reg[rb] = ""
	}
	c.parent[rb] = ra
	c.lists[ra] = merged
	c.lists[rb] = nil
	return ra
}

// mergeRoots merges the pre-DFS-ordered member lists of roots ra and rb in
// linear time, retiring both roots' list storage. The merge lands in one of
// the existing backing arrays when it fits (a backward merge, so the
// occupant is never overwritten before it is read); otherwise it goes to a
// free-listed or fresh array with append-style headroom, so a class absorbs
// many merges per allocation.
func (c *Classes) mergeRoots(ra, rb ir.VarID) []ir.VarID {
	x, y := c.Members(ra), c.Members(rb)
	need := len(x) + len(y)
	ax, ay := c.lists[ra], c.lists[rb]
	c.lists[ra], c.lists[rb] = nil, nil
	if cap(ax) >= need {
		c.releaseList(ay)
		return c.mergeBackward(ax[:need], x, y)
	}
	if cap(ay) >= need {
		c.releaseList(ax)
		return c.mergeBackward(ay[:need], y, x)
	}
	out := c.mergeForward(c.takeList(need), x, y)
	c.releaseList(ax)
	c.releaseList(ay)
	return out
}

// mergeForward merges x and y into out (which must not alias either).
func (c *Classes) mergeForward(out, x, y []ir.VarID) []ir.VarID {
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		if c.less(x[i], y[j]) {
			out = append(out, x[i])
			i++
		} else {
			out = append(out, y[j])
			j++
		}
	}
	out = append(out, x[i:]...)
	return append(out, y[j:]...)
}

// mergeBackward merges x and y into out, where x occupies the front of
// out's backing array. Writing from the back, the write index always stays
// ahead of the unread prefix of x. Each member of y, last first, is placed
// by galloping back from the end of that prefix and bisecting, and the
// members of x it passes move with one copy; once y is exhausted the
// remaining prefix of x is already in place. A merge costs
// O(|y|·log(|x|/|y|)) comparisons instead of up to |x|+|y|.
func (c *Classes) mergeBackward(out, x, y []ir.VarID) []ir.VarID {
	i, k := len(x), len(out)
	for j := len(y) - 1; j >= 0; j-- {
		p := c.search(x[:i], y[j], true)
		k -= i - p
		copy(out[k:], x[p:i])
		k--
		out[k] = y[j]
		i = p
	}
	return out
}

// takeList returns an empty list with capacity at least need from the pool.
func (c *Classes) takeList(need int) []ir.VarID { return c.pool.take(need) }

// releaseList retires a backing array for reuse by later merges.
func (c *Classes) releaseList(a []ir.VarID) { c.pool.put(a) }

// maxPre returns the nearer of two dominating ancestors: the one whose
// definition point comes later in pre-DFS order. NoVar loses to anything.
func (c *Classes) maxPre(x, y ir.VarID) ir.VarID {
	switch {
	case x == ir.NoVar:
		return y
	case y == ir.NoVar:
		return x
	case c.less(x, y):
		return y
	default:
		return x
	}
}

// recomputeEqualAnc rebuilds equalAncIn for a class given as a pre-DFS
// ordered list, by simulating the dominance-forest traversal and scanning
// the ancestor stack for the nearest same-value intersecting member.
func (c *Classes) recomputeEqualAnc(list []ir.VarID) {
	dom := c.takeStack() // one-member frames over list
	for i, cur := range list {
		for len(dom) > 0 && !c.chk.DefDominates(list[dom[len(dom)-1].lo], cur) {
			dom = dom[:len(dom)-1]
		}
		c.equalAncIn[cur] = ir.NoVar
		for j := len(dom) - 1; j >= 0; j-- {
			anc := list[dom[j].lo]
			if c.chk.Value(anc) == c.chk.Value(cur) && c.chk.Intersect(anc, cur) {
				c.equalAncIn[cur] = anc
				break
			}
		}
		dom = append(dom, stackEntry{lo: int32(i), hi: int32(i + 1)})
	}
	c.putStack(dom)
}
