package congruence

import "repro/internal/ir"

// EqualAncIn exposes the per-variable equal-intersecting-ancestor within
// its class.
func (c *Classes) EqualAncIn(v ir.VarID) ir.VarID { return c.equalAncIn[v] }

// EqualAncOut exposes the equal_anc_out the last InterferesLinear recorded
// for v (NoVar when none).
func EqualAncOut(c *Classes, v ir.VarID) ir.VarID { return c.equalAncOut[v] }

// EagerCheck is the oracle of the lazy-run traversal: the paper's merged
// dominance-forest traversal visiting every member of both classes of a and
// b in pre-DFS order, popping the stack eagerly. values selects the
// value-based definition (InterferesLinear) over pure intersection
// (InterferesLinearPure). It reports the decision, the intersection tests
// issued, and the equal_anc_out of every member it visited, and leaves c
// untouched.
func EagerCheck(c *Classes, a, b ir.VarID, values bool) (interferes bool, tests int, out map[ir.VarID]ir.VarID) {
	type frame struct {
		v   ir.VarID
		red bool
	}
	out = map[ir.VarID]ir.VarID{}
	red, blue := c.Members(a), c.Members(b)
	var dom []frame
	nr, nb, ri, bi := 0, 0, 0, 0
	for (ri < len(red) && nb > 0) || (bi < len(blue) && nr > 0) ||
		(ri < len(red) && bi < len(blue)) {
		var cur ir.VarID
		var curRed bool
		if bi == len(blue) || (ri < len(red) && c.less(red[ri], blue[bi])) {
			cur, curRed = red[ri], true
			ri++
		} else {
			cur, curRed = blue[bi], false
			bi++
		}
		for len(dom) > 0 && !c.chk.DefDominates(dom[len(dom)-1].v, cur) {
			if dom[len(dom)-1].red {
				nr--
			} else {
				nb--
			}
			dom = dom[:len(dom)-1]
		}
		parent, parentRed := ir.NoVar, false
		if len(dom) > 0 {
			parent, parentRed = dom[len(dom)-1].v, dom[len(dom)-1].red
		}
		if values {
			out[cur] = ir.NoVar
			anc := parent
			if parent != ir.NoVar && parentRed == curRed {
				anc = out[parent]
			}
			if anc != ir.NoVar {
				differ := c.chk.Value(cur) != c.chk.Value(anc)
				for tmp := anc; tmp != ir.NoVar; tmp = c.equalAncIn[tmp] {
					tests++
					if c.chk.Intersect(cur, tmp) {
						if differ {
							return true, tests, out
						}
						out[cur] = tmp
						break
					}
				}
			}
		} else if parent != ir.NoVar && parentRed != curRed {
			tests++
			if c.chk.Intersect(parent, cur) {
				return true, tests, out
			}
		}
		dom = append(dom, frame{cur, curRed})
		if curRed {
			nr++
		} else {
			nb++
		}
	}
	return false, tests, out
}

// MergeBackward merges the pre-DFS-ordered lists x and y in place, in the
// backing array of x, which must have room for both — the in-place merge
// the class storage runs when one list's array has the capacity.
func MergeBackward(c *Classes, x, y []ir.VarID) []ir.VarID {
	return c.mergeBackward(x[:len(x)+len(y)], x, y)
}
