package congruence

import "repro/internal/ir"

// Pred is a variable-to-variable interference predicate used by the
// quadratic class test; x and y always belong to different classes.
type Pred func(x, y ir.VarID) bool

// stackEntry is one frame of the simulated dominance-forest traversal: the
// members list[lo:hi] of the smaller class (small) or of the larger one,
// whose top is list[hi-1]. A smaller-class frame holds one member; a
// larger-class frame holds one member or a lazy run, of which only the
// members that dominate the variables visited after it are still ancestors
// (pops find the others by examining the run from its end).
type stackEntry struct {
	small  bool
	lo, hi int32
}

// takeStack hands out the reusable traversal stack (empty).
func (c *Classes) takeStack() []stackEntry {
	s := c.stack
	c.stack = nil
	return s[:0]
}

// putStack returns the (possibly grown) traversal stack to the pool.
func (c *Classes) putStack(s []stackEntry) {
	c.stack = s
}

// InterferesQuadratic tests interference between the classes of a and b by
// testing every cross pair, the baseline the paper's "Linear" option
// replaces. exemptA/exemptB, when valid, skip the single pair
// (exemptA, exemptB) — Sreedhar's SSA-based coalescing rule, which omits
// the copy-related pair itself.
func (c *Classes) InterferesQuadratic(a, b ir.VarID, pred Pred, exemptA, exemptB ir.VarID) bool {
	if c.SameClass(a, b) {
		return false
	}
	for _, x := range c.Members(a) {
		for _, y := range c.Members(b) {
			if x == exemptA && y == exemptB || x == exemptB && y == exemptA {
				continue
			}
			c.Tests++
			if pred(x, y) {
				return true
			}
		}
	}
	return false
}

// InterferesLinear tests interference between the classes of a and b with
// the paper's merged dominance-forest traversal: a linear number of
// intersection tests in the total size of the two classes. When the checker
// carries value information the value-based definition is used, with
// equal-intersecting-ancestor chains; otherwise it degrades to the pure
// intersection test of Algorithm 2.
//
// A successful (non-interfering) call leaves the equal_anc_out scratch
// valid; Merge must be the next class operation to consume it, as in the
// paper's coalescing loop.
func (c *Classes) InterferesLinear(a, b ir.VarID) bool {
	return c.interferesLinear(a, b, true)
}

// InterferesLinearPure is Algorithm 2's two-set form with the *pure
// intersection* definition (no value information): since both classes are
// intersection-free and all cross pairs visited so far tested clean, a new
// intersection can only appear between the current variable and its
// dominance-forest parent when the two belong to different classes.
func (c *Classes) InterferesLinearPure(a, b ir.VarID) bool {
	return c.interferesLinear(a, b, false)
}

// interferesLinear is the traversal shared by both linear checks; values
// selects the value-based definition. It visits the two member lists in
// merged pre-DFS order, except that while the stack holds no member of the
// smaller class the larger class's members before the next smaller-class
// member are pushed unvisited as one lazy run (see the package comment).
func (c *Classes) interferesLinear(a, b ir.VarID, values bool) bool {
	ra, rb := c.Find(a), c.Find(b)
	if ra == rb {
		return false
	}
	if values {
		c.clearOut()
	}
	sm, lg := c.Members(ra), c.Members(rb)
	if len(sm) > len(lg) {
		sm, lg = lg, sm
	}
	dom := c.takeStack()
	defer func() { c.putStack(dom) }()
	ns := 0 // smaller-class frames on the stack
	si, li := 0, 0
	for si < len(sm) || ns > 0 && li < len(lg) {
		cur, curSmall := ir.NoVar, true
		switch {
		case ns == 0 && (li == len(lg) || c.lazyOK(lg[li])):
			if end := li + c.search(lg[li:], sm[si], false); end > li {
				dom = append(dom, stackEntry{lo: int32(li), hi: int32(end)})
				li = end
			}
			cur = sm[si]
			si++
		case si < len(sm) && (li == len(lg) || c.less(sm[si], lg[li])):
			cur = sm[si]
			si++
		default:
			cur, curSmall = lg[li], false
			li++
		}

		// Pop ancestors that do not dominate cur: by pre-DFS order they can
		// never dominate a later variable either.
		parent, parentSmall := ir.NoVar, false
		for len(dom) > 0 {
			e := &dom[len(dom)-1]
			var top ir.VarID
			if e.small {
				top = sm[e.hi-1]
			} else {
				top = lg[e.hi-1]
			}
			if c.chk.DefDominates(top, cur) {
				parent, parentSmall = top, e.small
				break
			}
			if e.hi--; e.hi == e.lo {
				if e.small {
					ns--
				}
				dom = dom[:len(dom)-1]
			}
		}

		if values {
			if c.interference(cur, curSmall, parent, parentSmall) {
				return true
			}
		} else if parent != ir.NoVar && parentSmall != curSmall {
			c.Tests++
			if c.chk.Intersect(parent, cur) {
				return true
			}
		}

		if curSmall {
			dom = append(dom, stackEntry{small: true, lo: int32(si - 1), hi: int32(si)})
			ns++
		} else {
			dom = append(dom, stackEntry{lo: int32(li - 1), hi: int32(li)})
		}
	}
	return false
}

// lazyOK reports whether v may open a lazy run: its definition is absent
// or in a reachable block. Definitions in unreachable blocks share one
// preorder sentinel, so pre-DFS order does not nest them by dominance and
// only the eager traversal reproduces their stack; they sort first.
func (c *Classes) lazyOK(v ir.VarID) bool { return !c.chk.UnreachableDef(v) }

// search returns the index of the first member of l that follows v in
// pre-DFS order (len(l) if none). It gallops from the front of l, or from
// its back when back is set, probing 1, 2, 4, … members from that end, and
// then bisects, so an answer r members from the starting end costs
// O(log r) comparisons.
func (c *Classes) search(l []ir.VarID, v ir.VarID, back bool) int {
	lo, hi := 0, len(l)
	for d := 1; lo < hi; d *= 2 {
		if back {
			m := max(len(l)-d, 0)
			if c.less(l[m], v) {
				lo = m + 1
				break
			}
			hi = m
		} else {
			m := min(d-1, len(l)-1)
			if !c.less(l[m], v) {
				hi = m
				break
			}
			lo = m + 1
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.less(l[m], v) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// interference is the paper's Function interference: cur's parent in the
// merged dominance forest is parent (possibly NoVar). It reports whether
// cur interferes with any already-visited variable of the other class, and
// records cur's equal-intersecting ancestor in the other class.
func (c *Classes) interference(cur ir.VarID, curSmall bool, parent ir.VarID, parentSmall bool) bool {
	if parent == ir.NoVar {
		return false
	}
	b := parent
	if parentSmall == curSmall {
		b = c.equalAncOut[parent] // switch to the parent's chain in the other class
	}
	if b == ir.NoVar {
		return false
	}
	if c.chk.Value(cur) != c.chk.Value(b) {
		return c.chainIntersect(cur, b)
	}
	c.updateEqualAncOut(cur, b)
	return false
}

// chainIntersect reports whether a intersects b or one of b's
// equal-intersecting ancestors within b's own class.
func (c *Classes) chainIntersect(a, b ir.VarID) bool {
	for tmp := b; tmp != ir.NoVar; tmp = c.equalAncIn[tmp] {
		c.Tests++
		if c.chk.Intersect(a, tmp) {
			return true
		}
	}
	return false
}

// updateEqualAncOut walks b's equal-intersecting-ancestor chain (same value
// as a, other class) to the nearest member intersecting a, recording it as
// a's equal-intersecting ancestor in the other class.
func (c *Classes) updateEqualAncOut(a, b ir.VarID) {
	for tmp := b; tmp != ir.NoVar; tmp = c.equalAncIn[tmp] {
		c.Tests++
		if c.chk.Intersect(a, tmp) {
			c.equalAncOut[a] = tmp
			c.touched = append(c.touched, a)
			return
		}
	}
}

// clearOut resets the equal_anc_out entries the previous check recorded.
func (c *Classes) clearOut() {
	for _, v := range c.touched {
		c.equalAncOut[v] = ir.NoVar
	}
	c.touched = c.touched[:0]
}
