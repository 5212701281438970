package livecheck

import (
	"slices"

	"repro/internal/bitset"
	"repro/internal/dom"
	"repro/internal/ir"
)

// SetDefUse installs a fresh def-use index after the program's instructions
// were rewritten (the CFG must be unchanged).
func (c *Checker) SetDefUse(du *ir.DefUse) { c.du = du }

// R exposes the reduced reachability of block q.
func (c *Checker) R(q int) []int {
	var out []int
	for b := range c.f.Blocks {
		if c.row(c.r, c.rw, q)[b/64]&(1<<(b%64)) != 0 {
			out = append(out, b)
		}
	}
	return out
}

// Oracle is the checker as it stood before loop-target sets: it stores R
// and the back-edge list from its own depth-first walk, and answers every
// query by closing R(q) over back edges with a fixpoint. The tests require
// Checker to give the same answer to every query.
type Oracle struct {
	f     *ir.Func
	dt    *dom.Tree
	du    *ir.DefUse
	r     []*bitset.Set
	backs []backEdge
}

type backEdge struct{ src, tgt int }

// NewOracle precomputes the fixpoint checker's structures for f.
func NewOracle(f *ir.Func, dt *dom.Tree, du *ir.DefUse) *Oracle {
	n := len(f.Blocks)
	o := &Oracle{f: f, dt: dt, du: du}

	// An edge is a back edge when its target is on the current DFS stack
	// (retreating edge).
	onStack := make([]bool, n)
	visited := make([]bool, n)
	backFrom := make([][]int, n)
	type frame struct {
		b    *ir.Block
		next int
	}
	stack := []frame{{b: f.Entry()}}
	visited[f.Entry().ID] = true
	onStack[f.Entry().ID] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(fr.b.Succs) {
			s := fr.b.Succs[fr.next]
			fr.next++
			if onStack[s.ID] {
				backFrom[fr.b.ID] = append(backFrom[fr.b.ID], s.ID)
				continue
			}
			if !visited[s.ID] {
				visited[s.ID] = true
				onStack[s.ID] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		onStack[fr.b.ID] = false
		stack = stack[:len(stack)-1]
	}

	// Reduced reachability in reverse topological order.
	o.r = make([]*bitset.Set, n)
	for i := range o.r {
		o.r[i] = bitset.New(n)
	}
	rpo := dt.RPO()
	for i := len(rpo) - 1; i >= 0; i-- {
		q := rpo[i]
		o.r[q].Add(q)
	succ:
		for _, s := range f.Blocks[q].Succs {
			for _, t := range backFrom[q] {
				if t == s.ID {
					continue succ
				}
			}
			o.r[q].UnionWith(o.r[s.ID])
		}
	}
	for s := 0; s < n; s++ {
		for _, t := range backFrom[s] {
			o.backs = append(o.backs, backEdge{s, t})
		}
	}
	return o
}

// closure returns the blocks reachable from q without crossing the
// definition block d — R(q) closed over back edges whose target lies
// strictly inside d's dominance region — and the targets it accepted.
func (o *Oracle) closure(q, d int) (reach, accepted *bitset.Set) {
	reach = o.r[q].Copy()
	accepted = bitset.New(len(o.f.Blocks))
	for changed := true; changed; {
		changed = false
		for _, be := range o.backs {
			if accepted.Has(be.tgt) || be.tgt == d || !reach.Has(be.src) {
				continue
			}
			if !o.dt.StrictlyDominates(d, be.tgt) {
				continue // re-entering that loop would cross d
			}
			accepted.Add(be.tgt)
			reach.UnionWith(o.r[be.tgt])
			changed = true
		}
	}
	return reach, accepted
}

// Accepted returns, sorted, the back-edge targets the fixpoint accepts for
// a walk from q that must not cross d.
func (o *Oracle) Accepted(q, d int) []int {
	_, accepted := o.closure(q, d)
	return accepted.Elems()
}

// Accepted returns, sorted, the loop targets the checker accepts for a walk
// from q that must not cross d.
func (c *Checker) Accepted(q, d int) []int {
	out := []int{}
	if acc := c.accept(q, d); acc != nil {
		for i, t := range c.tgts {
			if acc[i/64]&(1<<(i%64)) != 0 {
				out = append(out, int(t))
			}
		}
	}
	slices.Sort(out)
	return out
}

// LiveInBlock reports whether v is live at entry of block q.
func (o *Oracle) LiveInBlock(v ir.VarID, q int) bool {
	d := o.du.DefBlock(v)
	if d < 0 || d == q || !o.dt.Dominates(d, q) {
		return false
	}
	reach, _ := o.closure(q, d)
	for _, u := range o.du.Uses(v) {
		if ub := int(u.Block); ub != d && reach.Has(ub) {
			return true
		}
	}
	return false
}

// LiveOutBlock reports whether v is live at exit of block q.
func (o *Oracle) LiveOutBlock(v ir.VarID, q int) bool {
	d := o.du.DefBlock(v)
	if d < 0 || !o.dt.Dominates(d, q) {
		return false
	}
	if o.du.HasUseAt(v, q, ir.PhiUseSlot) {
		return true
	}
	if d == q {
		return o.du.UsedOutsideBlock(v, q)
	}
	for _, s := range o.f.Blocks[q].Succs {
		if o.LiveInBlock(v, s.ID) {
			return true
		}
	}
	return false
}

// LoopTargets returns the number of distinct back-edge targets.
func (c *Checker) LoopTargets() int { return len(c.tgts) }
