// Package livecheck implements fast liveness *checking* for SSA-form
// programs in the style of Boissinot et al. (CGO'08), the substrate the
// paper uses to drop liveness sets entirely (option "LiveCheck").
//
// Instead of dataflow liveness sets, the checker stores three structures
// that depend only on the CFG. Back edges are the retreating edges of the
// depth-first walk behind the dominator tree's reverse postorder; removing
// them leaves the acyclic reduced graph. The loop targets are the distinct
// back-edge targets, numbered in dominator-tree preorder.
//
//   - R(b): the blocks b reaches in the reduced graph, b included.
//   - Loops(b): the loop targets t such that some back edge s→t leaves a
//     block s in R(b) — the loops a walk from b can re-enter.
//   - Reachers(b): the loop targets t with b in R(t).
//
// R and Loops are built in one reverse-topological pass over the reduced
// graph, Reachers from R. With at most 64 loop targets, Loops(b) and
// Reachers(b) are one word each.
//
// A query for variable a defined in block d (which dominates all its uses)
// asks whether some use of a is reachable from q without crossing d. Such a
// walk may re-enter the loop of target t only if t lies strictly inside d's
// dominance region: a target outside it reaches a's uses only back through
// d, which redefines a, and d itself is a barrier. Those targets are one
// contiguous run of the preorder numbering, so the query walks target bits
// outward from q: it accepts the allowed targets in Loops(q), then the
// allowed targets in Loops(t) of every accepted t, until nothing new is
// accepted. a is live-in at q iff some use block u lies in R(q), or
// Reachers(u) shares a bit with the accepted set — one bit probe and one
// word-AND per use, in a single pass over the uses.
//
// The accepted set depends on q and d alone, and many variables share a
// defining block, so each block q keeps the last set computed for it,
// tagged with its d: a repeated (q, d) pair reads the stored row instead
// of walking again.
//
// The answer is exact on every CFG, irreducible ones included, because it
// decides the same thing as the fixpoint that closes R(q) over back edges:
// the fixpoint accepts a target when a back edge into it leaves a block
// already reached, and a block is reached iff it lies in R(q) or in R(t)
// of an accepted t. That is exactly a target bit of Loops(q) or Loops(t),
// and exactly the Reachers test. Nothing in the argument needs t to
// dominate its back-edge sources; the tests hold the checker to that
// fixpoint and to dataflow liveness on random irreducible CFGs.
//
// Because the structures depend only on the CFG, they stay valid while
// instructions are inserted or removed — exactly what the out-of-SSA
// translator needs while it inserts copies. So do the stored accepted
// sets: R, Loops, d's dominance region and the loop targets decide them.
package livecheck

import (
	"math/bits"
	"slices"

	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
)

// Checker implements the block-boundary liveness query interface shared
// with package liveness, so the translator swaps dataflow sets for the
// checker without touching its callers.
var _ interference.BlockLiveness = (*Checker)(nil)

// Checker answers liveness queries from CFG-only precomputation plus the
// def-use index of the current program.
type Checker struct {
	f  *ir.Func
	dt *dom.Tree
	du *ir.DefUse

	rw       int      // words per R row
	r        []uint64 // R(b), rw words per block
	tw       int      // words per loop-target row
	tgts     []int32  // loop targets in dominator-tree preorder
	tgtPre   []int32  // preorder number of each loop target (sorted)
	loops    []uint64 // Loops(b), tw words per block
	reachers []uint64 // Reachers(b), tw words per block

	// The accepted-target memo: accD[q] is the defining block d that
	// block q's row of acc (tw words) was computed for, -1 when the row
	// holds nothing yet.
	accD []int32
	acc  []uint64

	// Per-query scratch, reused across queries; the checker is therefore
	// not safe for concurrent use.
	allowed []uint64
	stack   []int32

	tgtOf []int32 // build scratch: loop-target index of each block
}

// New precomputes the checking structures for f. The def-use index du must
// describe the current instructions of f.
func New(f *ir.Func, dt *dom.Tree, du *ir.DefUse) *Checker {
	c := &Checker{}
	c.Rebuild(f, dt, du)
	return c
}

// Rebuild recomputes the checker for f in place, reusing c's arrays; a
// batch worker rebuilds one Checker for every function it translates.
func (c *Checker) Rebuild(f *ir.Func, dt *dom.Tree, du *ir.DefUse) {
	n := len(f.Blocks)
	c.f, c.dt, c.du = f, dt, du
	rpo := dt.RPO()

	// Loop targets: the targets of retreating edges, sorted by preorder so
	// the targets inside one dominance region form a contiguous run.
	c.tgtOf = ir.Resize(c.tgtOf, n)
	for i := range c.tgtOf {
		c.tgtOf[i] = -1
	}
	c.tgts = c.tgts[:0]
	for _, q := range rpo {
		for _, s := range f.Blocks[q].Succs {
			if back(dt, q, s.ID) && c.tgtOf[s.ID] < 0 {
				c.tgtOf[s.ID] = 0
				c.tgts = append(c.tgts, int32(s.ID))
			}
		}
	}
	slices.SortFunc(c.tgts, func(a, b int32) int {
		return int(dt.PreOrder(int(a)) - dt.PreOrder(int(b)))
	})
	c.tgtPre = ir.Resize(c.tgtPre, len(c.tgts))
	for i, t := range c.tgts {
		c.tgtOf[t] = int32(i)
		c.tgtPre[i] = dt.PreOrder(int(t))
	}

	c.rw = (n + 63) / 64
	c.tw = (len(c.tgts) + 63) / 64
	c.r = ir.Resize(c.r, n*c.rw)
	c.loops = ir.Resize(c.loops, n*c.tw)
	c.reachers = ir.Resize(c.reachers, n*c.tw)
	clear(c.r)
	clear(c.loops)
	clear(c.reachers)
	c.accD = ir.Resize(c.accD, n)
	for i := range c.accD {
		c.accD[i] = -1
	}
	c.acc = ir.Resize(c.acc, n*c.tw)
	c.allowed = ir.Resize(c.allowed, c.tw)
	c.stack = ir.Resize(c.stack, len(c.tgts))

	// R and Loops in reverse topological order of the reduced graph. The
	// reverse postorder is a topological order of it: removing the
	// retreating edges leaves only edges that go forward in that order.
	for i := len(rpo) - 1; i >= 0; i-- {
		q := rpo[i]
		rq, lq := c.row(c.r, c.rw, q), c.row(c.loops, c.tw, q)
		rq[q/64] |= 1 << (q % 64)
		for _, s := range f.Blocks[q].Succs {
			if back(dt, q, s.ID) {
				t := c.tgtOf[s.ID]
				lq[t/64] |= 1 << (t % 64)
				continue
			}
			or(rq, c.row(c.r, c.rw, s.ID))
			or(lq, c.row(c.loops, c.tw, s.ID))
		}
	}

	// Reachers, by transposing R restricted to the loop targets' rows.
	for i, t := range c.tgts {
		bit := uint64(1) << (i % 64)
		for wi, w := range c.row(c.r, c.rw, int(t)) {
			for ; w != 0; w &= w - 1 {
				b := wi*64 + bits.TrailingZeros64(w)
				c.reachers[b*c.tw+i/64] |= bit
			}
		}
	}
}

// back reports whether the CFG edge q→s is a back edge.
func back(dt *dom.Tree, q, s int) bool { return dt.RPONumber(s) <= dt.RPONumber(q) }

// row returns block b's row of a table with w words per block.
func (c *Checker) row(table []uint64, w, b int) []uint64 { return table[b*w : (b+1)*w] }

// or sets dst |= src word by word.
func or(dst, src []uint64) {
	for i, w := range src {
		dst[i] |= w
	}
}

// accept returns the loop targets a walk from q may re-enter without
// crossing d, as q's row of the memo, or nil when there is none. A miss
// computes the row and overwrites q's entry.
func (c *Checker) accept(q, d int) []uint64 {
	acc := c.row(c.acc, c.tw, q)
	if c.accD[q] != int32(d) {
		c.accD[q] = int32(d)
		c.walk(acc, q, d)
	}
	for _, w := range acc {
		if w != 0 {
			return acc
		}
	}
	return nil
}

// walk computes into acc the loop targets accepted for a walk from q that
// must not cross d.
func (c *Checker) walk(acc []uint64, q, d int) {
	clear(acc)
	// Targets strictly inside d's dominance region have preorder numbers in
	// (pre(d), post(d)): the tree is numbered with one clock for both.
	lo, _ := slices.BinarySearch(c.tgtPre, c.dt.PreOrder(d)+1)
	hi, _ := slices.BinarySearch(c.tgtPre, c.dt.PostOrder(d))
	if lo >= hi {
		return
	}
	for wi := range c.allowed {
		c.allowed[wi] = span(wi, lo, hi)
	}
	// Each accepted target is pushed once and expanded once.
	stack := c.admit(c.stack[:0], acc, q)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = c.admit(stack[:len(stack)-1], acc, int(c.tgts[i]))
	}
	c.stack = stack
}

// admit accepts into acc the allowed targets of Loops(b) not yet accepted
// and pushes their indices onto stack.
func (c *Checker) admit(stack []int32, acc []uint64, b int) []int32 {
	for wi, x := range c.row(c.loops, c.tw, b) {
		x &= c.allowed[wi] &^ acc[wi]
		acc[wi] |= x
		for ; x != 0; x &= x - 1 {
			stack = append(stack, int32(wi*64+bits.TrailingZeros64(x)))
		}
	}
	return stack
}

// span returns the bits of word wi that lie in the index range [lo, hi).
func span(wi, lo, hi int) uint64 {
	a, b := max(lo-wi*64, 0), min(hi-wi*64, 64)
	if a >= b {
		return 0
	}
	m := ^uint64(0) << a
	if b < 64 {
		m &= 1<<b - 1
	}
	return m
}

// LiveInBlock reports whether v is live at entry of block q
// (φ results of q excluded, matching package liveness).
func (c *Checker) LiveInBlock(v ir.VarID, q int) bool {
	d := c.du.DefBlock(v)
	if d < 0 || d == q || !c.dt.Dominates(d, q) {
		return false
	}
	// A body use inside the defining block sits before d's exit; a φ use on
	// an edge d→succ is only live on that very edge. In both cases reaching
	// it from elsewhere would cross d, so uses in d are skipped.
	rq, acc := c.row(c.r, c.rw, q), c.accept(q, d)
	for _, u := range c.du.Uses(v) {
		ub := int(u.Block)
		if ub == d {
			continue
		}
		if rq[ub/64]&(1<<(ub%64)) != 0 || acc != nil && intersects(c.row(c.reachers, c.tw, ub), acc) {
			return true
		}
	}
	return false
}

// intersects reports whether a and b share a bit.
func intersects(a, b []uint64) bool {
	for i, w := range a {
		if w&b[i] != 0 {
			return true
		}
	}
	return false
}

// LiveOutBlock reports whether v is live at exit of block q, including
// variables flowing into φ-functions of successors along q's edges.
func (c *Checker) LiveOutBlock(v ir.VarID, q int) bool {
	d := c.du.DefBlock(v)
	if d < 0 || !c.dt.Dominates(d, q) {
		return false
	}
	// The use lists are (block, slot)-sorted: a φ use along one of q's edges
	// is an exact-key lookup, and "some use beyond the defining block" is a
	// check of the list's ends.
	if c.du.HasUseAt(v, q, ir.PhiUseSlot) {
		return true // used by a φ of a successor along one of q's edges
	}
	if d == q {
		// Live-out of the defining block iff some use lies beyond it.
		return c.du.UsedOutsideBlock(v, q)
	}
	for _, s := range c.f.Blocks[q].Succs {
		if c.LiveInBlock(v, s.ID) {
			return true
		}
	}
	return false
}

// Bytes returns the footprint of the stored structures: R, Loops and
// Reachers per block, the accepted-target memo (8·tw + 4 bytes per block),
// the loop-target list with its preorder numbers, and the query scratch.
func (c *Checker) Bytes() int {
	words := len(c.r) + len(c.loops) + len(c.reachers) + len(c.acc) + len(c.allowed)
	return 8*words + 4*len(c.accD) + 4*3*len(c.tgts) // tgts, tgtPre and the query stack
}

// EvaluatedBytes is the paper's perfect-memory formula for the checking
// structures: ceil(nblocks/8) * nblocks * 2.
func EvaluatedBytes(nblocks int) int { return (nblocks + 7) / 8 * nblocks * 2 }
