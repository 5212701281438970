package dom

import (
	"slices"

	"repro/internal/ir"
)

// BuildLT computes the dominator tree with the Lengauer-Tarjan algorithm
// (simple path-compression variant, O(E·α(E,V))). It produces a Tree
// identical to Build's; the iterative Cooper-Harvey-Kennedy construction is
// the default because it is simpler and fast enough at JIT-relevant sizes,
// and the two implementations are checked against each other by the test
// suite. BuildLT exists as the asymptotically better alternative for very
// large functions.
func BuildLT(f *ir.Func) *Tree {
	n := len(f.Blocks)
	lt := &ltState{
		f:      f,
		semi:   make([]int, n),
		vertex: make([]int, 0, n),
		parent: make([]int, n),
		idom:   make([]int, n),
		label:  make([]int, n),
		anc:    make([]int, n),
		bucket: make([][]int, n),
		dfn:    make([]int, n),
	}
	for i := 0; i < n; i++ {
		lt.semi[i] = -1
		lt.parent[i] = -1
		lt.idom[i] = -1
		lt.anc[i] = -1
		lt.label[i] = i
		lt.dfn[i] = -1
	}
	lt.dfs(f.Entry().ID)

	// Process vertices in reverse DFS order (excluding the root).
	for i := len(lt.vertex) - 1; i >= 1; i-- {
		w := lt.vertex[i]
		// Semidominator: minimum over predecessors of eval().
		for _, p := range f.Blocks[w].Preds {
			if lt.dfn[p.ID] < 0 {
				continue // unreachable predecessor
			}
			u := lt.eval(p.ID)
			if lt.semi[u] < lt.semi[w] {
				lt.semi[w] = lt.semi[u]
			}
		}
		sd := lt.vertex[lt.semi[w]]
		lt.bucket[sd] = append(lt.bucket[sd], w)
		lt.anc[w] = lt.parent[w]
		// Implicitly compute idoms for the parent's bucket.
		pw := lt.parent[w]
		for _, v := range lt.bucket[pw] {
			u := lt.eval(v)
			if lt.semi[u] < lt.semi[v] {
				lt.idom[v] = u // defer: idom(v) = idom(u), fixed below
			} else {
				lt.idom[v] = pw
			}
		}
		lt.bucket[pw] = lt.bucket[pw][:0]
	}
	// Final pass in DFS order fixes the deferred idoms.
	for _, w := range lt.vertex[1:] {
		if lt.idom[w] != lt.vertex[lt.semi[w]] {
			lt.idom[w] = lt.idom[lt.idom[w]]
		}
	}

	// Assemble a Tree equivalent to Build's result, with the same reverse
	// postorder walk Build uses, so the Tree's auxiliary orders behave
	// identically.
	t := &Tree{f: f, idom: make([]int, n)}
	for i := range t.idom {
		t.idom[i] = -1
	}
	entry := f.Entry().ID
	t.idom[entry] = entry
	for _, w := range lt.vertex[1:] {
		t.idom[w] = lt.idom[w]
	}
	t.order()
	t.link()
	return t
}

type ltState struct {
	f      *ir.Func
	semi   []int // semidominator DFS number
	vertex []int // DFS number → block
	parent []int // DFS tree parent
	idom   []int
	label  []int // path-compression label (block with min semi on path)
	anc    []int // forest ancestor
	bucket [][]int
	dfn    []int // block → DFS number
}

func (lt *ltState) dfs(root int) {
	type frame struct {
		b, next int
	}
	stack := []frame{{b: root}}
	lt.dfn[root] = 0
	lt.semi[root] = 0
	lt.vertex = append(lt.vertex, root)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		blk := lt.f.Blocks[fr.b]
		if fr.next < len(blk.Succs) {
			s := blk.Succs[fr.next].ID
			fr.next++
			if lt.dfn[s] < 0 {
				lt.dfn[s] = len(lt.vertex)
				lt.semi[s] = len(lt.vertex)
				lt.vertex = append(lt.vertex, s)
				lt.parent[s] = fr.b
				stack = append(stack, frame{b: s})
			}
			continue
		}
		stack = stack[:len(stack)-1]
	}
}

// eval returns the block with minimum semidominator number on the forest
// path from v's root to v, compressing the path.
func (lt *ltState) eval(v int) int {
	if lt.anc[v] < 0 {
		return lt.label[v]
	}
	lt.compress(v)
	return lt.label[v]
}

func (lt *ltState) compress(v int) {
	// Iterative path compression: collect the path to the root, then fold
	// labels top-down.
	var path []int
	for lt.anc[lt.anc[v]] >= 0 {
		path = append(path, v)
		v = lt.anc[v]
	}
	for i := len(path) - 1; i >= 0; i-- {
		w := path[i]
		a := lt.anc[w]
		if lt.semi[lt.label[a]] < lt.semi[lt.label[w]] {
			lt.label[w] = lt.label[a]
		}
		lt.anc[w] = lt.anc[a]
	}
}

// order computes the reverse postorder of the CFG from a depth-first walk
// from the entry that visits successors in order (iterative, to tolerate
// deep CFGs).
func (t *Tree) order() {
	f := t.f
	n := len(f.Blocks)
	t.rpoPos = resize(t.rpoPos, n)
	t.seen = resize(t.seen, n)
	for i := range t.rpoPos {
		t.rpoPos[i] = -1
		t.seen[i] = false
	}
	t.rpo = resize(t.rpo, n)[:0]
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

// number assigns pre/post DFS numbers over the dominator tree (shared by
// both constructions).
func (t *Tree) number() {
	n := len(t.f.Blocks)
	t.pre = resize(t.pre, n)
	t.post = resize(t.post, n)
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
