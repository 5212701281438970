package dom

import (
	"repro/internal/ir"
)

// BuildLT computes the dominator tree with the Lengauer-Tarjan algorithm
// (simple path-compression variant, O(E·α(E,V))). It produces a Tree
// identical to Build's, and is the independent construction
// TestLTMatchesCHK checks Build's iterative Cooper-Harvey-Kennedy tree
// against.
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
