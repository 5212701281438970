// Package dom computes dominator trees, dominance frontiers, and loop
// nesting depths over the ir CFG. The dominator tree is built with the
// iterative algorithm of Cooper, Harvey and Kennedy; dominance queries are
// answered in O(1) with pre/post DFS numbering of the tree, which is the
// primitive both the linear congruence-class interference test (paper,
// Section IV-B) and the fast liveness check (Section IV-A) rely on.
package dom

import (
	"slices"

	"repro/internal/ir"
)

// Tree is the dominator tree of a function plus derived orderings.
type Tree struct {
	f        *ir.Func
	idom     []int   // immediate dominator (block ID); entry maps to itself
	children [][]int // dominator-tree children
	pre      []int32 // dominator-tree preorder number
	post     []int32 // dominator-tree postorder number
	rpo      []int   // reverse postorder of the CFG (reachable blocks only)
	rpoPos   []int32 // position of each block in rpo; -1 if unreachable

	frontier  [][]int // lazily computed dominance frontier
	loopDepth []int   // lazily computed loop nesting depth

	flat []int // backing array the children lists are carved from

	// Working state of a build, kept so Rebuild reuses it.
	seen   []bool
	stack  []frame
	counts []int32
}

// frame is one entry of the iterative depth-first walks: a block and the
// index of the next successor (or child) to visit.
type frame struct{ b, next int }

// Build computes the dominator tree of f. Unreachable blocks have no
// dominator and are reported by Reachable.
func Build(f *ir.Func) *Tree {
	t := &Tree{}
	t.Rebuild(f)
	return t
}

// Rebuild recomputes the tree for f in place, reusing t's arrays; a batch
// worker rebuilds one Tree for every function it translates. Everything
// previously returned by t (RPO, Children, Frontier, LoopDepth) is
// invalidated.
func (t *Tree) Rebuild(f *ir.Func) {
	n := len(f.Blocks)
	t.f = f
	t.frontier, t.loopDepth = nil, nil
	t.idom = ir.Resize(t.idom, n)
	for i := range t.idom {
		t.idom[i] = -1
	}
	t.order()

	// Cooper-Harvey-Kennedy iteration.
	entry := f.Entry().ID
	t.idom[entry] = entry
	for changed := true; changed; {
		changed = false
		for _, b := range t.rpo {
			if b == entry {
				continue
			}
			newIdom := -1
			for _, p := range f.Blocks[b].Preds {
				if t.idom[p.ID] < 0 {
					continue // unreachable or not yet processed
				}
				if newIdom < 0 {
					newIdom = p.ID
				} else {
					newIdom = t.intersect(p.ID, newIdom)
				}
			}
			if newIdom >= 0 && t.idom[b] != newIdom {
				t.idom[b] = newIdom
				changed = true
			}
		}
	}
	t.link()
}

// link builds the children lists from idom and numbers the tree. The lists
// are carved out of one flat array (CSR layout): counting pass, region
// carve, fill pass — no append chain per interior node.
func (t *Tree) link() {
	n := len(t.f.Blocks)
	entry := t.f.Entry().ID
	t.children = ir.Resize(t.children, n)
	clear(t.children)
	t.counts = ir.Resize(t.counts, n)
	clear(t.counts)
	total := 0
	for _, b := range t.rpo {
		if b == entry {
			continue
		}
		t.counts[t.idom[b]]++
		total++
	}
	t.flat = ir.Resize(t.flat, total)
	off := 0
	for p, c := range t.counts {
		if c == 0 {
			continue
		}
		t.children[p] = t.flat[off : off : off+int(c)]
		off += int(c)
	}
	for _, b := range t.rpo {
		if b == entry {
			continue
		}
		p := t.idom[b]
		t.children[p] = append(t.children[p], b)
	}
	t.number()
}

// order computes the reverse postorder of the CFG from a depth-first walk
// from the entry that visits successors in order (iterative, to tolerate
// deep CFGs).
func (t *Tree) order() {
	f := t.f
	n := len(f.Blocks)
	t.rpoPos = ir.Resize(t.rpoPos, n)
	t.seen = ir.Resize(t.seen, n)
	for i := range t.rpoPos {
		t.rpoPos[i] = -1
		t.seen[i] = false
	}
	t.rpo = ir.Resize(t.rpo, n)[:0]
	entry := f.Entry().ID
	stack := append(t.stack[:0], frame{b: entry})
	t.seen[entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := f.Blocks[fr.b].Succs
		if fr.next < len(succs) {
			s := succs[fr.next].ID
			fr.next++
			if !t.seen[s] {
				t.seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		t.rpo = append(t.rpo, fr.b) // postorder for now
		stack = stack[:len(stack)-1]
	}
	t.stack = stack
	slices.Reverse(t.rpo)
	for pos, b := range t.rpo {
		t.rpoPos[b] = int32(pos)
	}
}

// number assigns pre/post DFS numbers over the dominator tree.
func (t *Tree) number() {
	n := len(t.f.Blocks)
	t.pre = ir.Resize(t.pre, n)
	t.post = ir.Resize(t.post, n)
	for i := range t.pre {
		t.pre[i] = -1
		t.post[i] = -1
	}
	entry := t.f.Entry().ID
	var clock int32
	stack := append(t.stack[:0], frame{b: entry})
	t.pre[entry] = clock
	clock++
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(t.children[fr.b]) {
			c := t.children[fr.b][fr.next]
			fr.next++
			t.pre[c] = clock
			clock++
			stack = append(stack, frame{b: c})
			continue
		}
		t.post[fr.b] = clock
		clock++
		stack = stack[:len(stack)-1]
	}
	t.stack = stack
}

// intersect walks two blocks up the (partially built) dominator tree to
// their common ancestor, comparing positions in reverse postorder.
func (t *Tree) intersect(a, b int) int {
	for a != b {
		for t.rpoPos[a] > t.rpoPos[b] {
			a = t.idom[a]
		}
		for t.rpoPos[b] > t.rpoPos[a] {
			b = t.idom[b]
		}
	}
	return a
}

// Func returns the function the tree was built for.
func (t *Tree) Func() *ir.Func { return t.f }

// Reachable reports whether block b is reachable from the entry.
func (t *Tree) Reachable(b int) bool { return t.rpoPos[b] >= 0 }

// IDom returns the immediate dominator of b, or -1 for the entry block and
// unreachable blocks.
func (t *Tree) IDom(b int) int {
	if b == t.f.Entry().ID || t.idom[b] < 0 {
		return -1
	}
	return t.idom[b]
}

// Children returns the dominator-tree children of b.
func (t *Tree) Children(b int) []int { return t.children[b] }

// Dominates reports whether block a dominates block b (reflexively), in
// O(1) using the DFS numbering.
func (t *Tree) Dominates(a, b int) bool {
	if t.pre[a] < 0 || t.pre[b] < 0 {
		return false
	}
	return t.pre[a] <= t.pre[b] && t.post[b] <= t.post[a]
}

// StrictlyDominates reports whether a dominates b and a != b.
func (t *Tree) StrictlyDominates(a, b int) bool { return a != b && t.Dominates(a, b) }

// PreOrder returns the dominator-tree preorder number of b (-1 if
// unreachable). Listing variables by the preorder of their definition block
// yields the "pre-DFS order" the paper's Algorithm 2 requires.
func (t *Tree) PreOrder(b int) int32 { return t.pre[b] }

// PostOrder returns the dominator-tree postorder number of b (-1 if
// unreachable). Together with PreOrder it answers dominance in O(1):
// a dominates b iff pre(a) <= pre(b) and post(b) <= post(a) — the pair the
// interference checker caches per definition point.
func (t *Tree) PostOrder(b int) int32 { return t.post[b] }

// RPO returns the blocks in reverse postorder of the CFG.
func (t *Tree) RPO() []int { return t.rpo }

// RPONumber returns the position of b in RPO (-1 if unreachable). A CFG
// edge u→v retreats in the depth-first walk behind RPO (v is an ancestor
// of u on that walk, or u itself) iff RPONumber(v) <= RPONumber(u).
func (t *Tree) RPONumber(b int) int32 { return t.rpoPos[b] }

// Frontier returns the dominance frontier of every block, computed once on
// first use with the Cooper-Harvey-Kennedy per-join walk.
func (t *Tree) Frontier() [][]int {
	if t.frontier != nil {
		return t.frontier
	}
	n := len(t.f.Blocks)
	df := make([][]int, n)
	inDF := make([]int32, n)
	for i := range inDF {
		inDF[i] = -1
	}
	for _, bID := range t.rpo {
		b := t.f.Blocks[bID]
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !t.Reachable(p.ID) {
				continue
			}
			runner := p.ID
			for runner != t.idom[bID] {
				if inDF[runner] != int32(bID) {
					inDF[runner] = int32(bID)
					df[runner] = append(df[runner], bID)
				}
				runner = t.idom[runner]
			}
		}
	}
	t.frontier = df
	return df
}

// LoopDepth returns the loop nesting depth of every block, derived from the
// natural loops of back edges (u→v with v dominating u). Blocks outside any
// loop have depth 0. The workload generator and coalescer use 10^depth as
// the default frequency/affinity weight.
func (t *Tree) LoopDepth() []int {
	if t.loopDepth != nil {
		return t.loopDepth
	}
	n := len(t.f.Blocks)
	depth := make([]int, n)
	for _, uID := range t.rpo {
		u := t.f.Blocks[uID]
		for _, v := range u.Succs {
			if !t.Dominates(v.ID, uID) {
				continue
			}
			// Natural loop of back edge u→v: v plus all blocks that reach u
			// without passing through v. The header's own predecessors are
			// never expanded (it is marked in-loop up front).
			inLoop := make([]bool, n)
			inLoop[v.ID] = true
			var work []int
			if !inLoop[uID] {
				inLoop[uID] = true
				work = append(work, uID)
			}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				for _, p := range t.f.Blocks[x].Preds {
					if t.Reachable(p.ID) && !inLoop[p.ID] {
						inLoop[p.ID] = true
						work = append(work, p.ID)
					}
				}
			}
			for b := 0; b < n; b++ {
				if inLoop[b] {
					depth[b]++
				}
			}
		}
	}
	t.loopDepth = depth
	return depth
}
