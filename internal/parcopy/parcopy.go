// Package parcopy sequentializes parallel copies: it turns the parallel
// semantics (a1, …, an) ← (b1, …, bn) into an ordered list of plain copies
// using the minimum possible number of copies — exactly one extra copy,
// through one fresh variable, for each closed cycle that duplicates no
// value (paper, Section III-C, Algorithm 1; the algorithm matches C. May's
// solution to the parallel assignment problem).
//
// The algorithm's working state — the loc/pred tables, the worklists, the
// duplicate-destination check — lives in a reusable Scratch keyed by
// variable ID and validated with epoch stamps, so the rewrite phase of a
// batch translation sequentializes thousands of parallel copies without
// allocating per copy. The pre-scratch map-based implementation lives on
// in the package's tests as the differential oracle of the scratch engine.
package parcopy

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Copy is one sequential copy Dst ← Src.
type Copy struct {
	Dst, Src ir.VarID
}

// Scratch holds the reusable working state of the sequentializer. The zero
// value is ready for use. A Scratch may be reused across parallel copies
// and functions of any size (tables grow on demand and are invalidated per
// run by epoch stamps) but not concurrently.
type Scratch struct {
	epoch uint32
	// seen stamps destinations of the current run (duplicate rejection).
	seen []uint32
	// stamp validates loc/pred: an entry is meaningful only when its stamp
	// equals the current epoch.
	stamp []uint32
	// loc[a]: where the initial value of a is currently available.
	// pred[b]: the variable whose initial value must end up in b.
	loc, pred   []ir.VarID
	toDo, ready []ir.VarID
	out         []Copy
}

// prepare starts a new run over variables < n.
func (sc *Scratch) prepare(n int) {
	if sc.epoch == math.MaxUint32 {
		// Epoch wrap: stale stamps could alias the new epoch; start over.
		for i := range sc.seen {
			sc.seen[i] = 0
			sc.stamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	if len(sc.seen) < n {
		// Fresh zeroed tables: zero is never the current epoch, so no
		// copying of old stamps is needed.
		sc.seen = make([]uint32, n)
		sc.stamp = make([]uint32, n)
		sc.loc = make([]ir.VarID, n)
		sc.pred = make([]ir.VarID, n)
	}
	sc.toDo = sc.toDo[:0]
	sc.ready = sc.ready[:0]
	sc.out = sc.out[:0]
}

// Sequentialize orders the parallel copy dsts[i] ← srcs[i]. Self copies
// (dst == src) are dropped. When a cycle must be broken, fresh() is invoked
// once to obtain a scratch variable; fresh is only called if needed and may
// be invoked several times for several disjoint cycles (each call may
// return the same variable: the cycles are broken one after the other).
//
// A destination may appear only once — a duplicate destination makes the
// parallel assignment ambiguous, and it would silently corrupt the pred
// table below (the later pair overwrites the earlier one's predecessor,
// dropping a copy) — so duplicates are rejected with a panic. Duplicate
// sources are allowed (one value copied to several destinations). The input
// slices are not modified.
//
// The returned slice is owned by the scratch and only valid until its next
// run.
func (sc *Scratch) Sequentialize(dsts, srcs []ir.VarID, fresh func() ir.VarID) []Copy {
	if len(dsts) != len(srcs) {
		panic("parcopy: mismatched parallel copy operand lists")
	}
	max := ir.VarID(-1)
	for i := range dsts {
		if dsts[i] > max {
			max = dsts[i]
		}
		if srcs[i] > max {
			max = srcs[i]
		}
	}
	sc.prepare(int(max) + 1)
	ep := sc.epoch

	for _, d := range dsts {
		if sc.seen[d] == ep {
			panic(fmt.Sprintf("parcopy: destination %d appears twice in parallel copy", d))
		}
		sc.seen[d] = ep
	}

	// touch stamps v's loc/pred entries for this run, both "missing".
	touch := func(v ir.VarID) {
		if sc.stamp[v] != ep {
			sc.stamp[v] = ep
			sc.loc[v] = ir.NoVar
			sc.pred[v] = ir.NoVar
		}
	}
	for i, b := range dsts {
		a := srcs[i]
		if a == b {
			continue // self copy: nothing to do
		}
		touch(a)
		touch(b)
	}
	for i, b := range dsts {
		a := srcs[i]
		if a == b {
			continue
		}
		sc.loc[a] = a  // a is needed and not copied yet
		sc.pred[b] = a // unique predecessor of b
		sc.toDo = append(sc.toDo, b)
	}
	for i, b := range dsts {
		if srcs[i] == b {
			continue
		}
		if sc.loc[b] == ir.NoVar {
			sc.ready = append(sc.ready, b) // b is not used as a source: free to overwrite
		}
	}

	scratchVar := ir.NoVar
	for len(sc.toDo) > 0 {
		for len(sc.ready) > 0 {
			b := sc.ready[len(sc.ready)-1]
			sc.ready = sc.ready[:len(sc.ready)-1]
			a := sc.pred[b]
			c := sc.loc[a] // the initial value of a is available in c
			sc.out = append(sc.out, Copy{Dst: b, Src: c})
			sc.loc[a] = b // now available in b
			if a == c && sc.pred[a] != ir.NoVar {
				// a's own value was just saved into b and a is itself the
				// destination of a pending copy: it can now be overwritten.
				sc.ready = append(sc.ready, a)
			}
		}
		b := sc.toDo[len(sc.toDo)-1]
		sc.toDo = sc.toDo[:len(sc.toDo)-1]
		if b == sc.loc[b] {
			// b still holds its own initial value yet remains a pending
			// destination: b closes a cycle with no duplication. Break it
			// with one extra copy through the scratch variable.
			if scratchVar == ir.NoVar {
				scratchVar = fresh()
			}
			sc.out = append(sc.out, Copy{Dst: scratchVar, Src: b})
			sc.loc[b] = scratchVar
			sc.ready = append(sc.ready, b)
		}
	}
	return sc.out
}

// SequentializeInstr rewrites the parallel-copy instruction at index idx of
// block b into plain copies inserted at its position, shifting the block
// tail in place (no temporary tail copy) and allocating the copy
// instructions from f's arena. fresh mints the cycle scratch variable on
// first use. It returns the emitted copies; the slice is owned by sc and
// valid until its next run. Instructions other than the replaced parallel
// copy keep their identity and order.
func (sc *Scratch) SequentializeInstr(f *ir.Func, b *ir.Block, idx int, fresh func() ir.VarID) []Copy {
	in := b.Instrs[idx]
	if in.Op != ir.OpParCopy {
		panic("parcopy: instruction is not a parallel copy")
	}
	seq := sc.Sequentialize(in.Defs, in.Uses, fresh)
	k := len(seq)
	switch {
	case k == 0:
		// Delete the instruction: shift the tail left in place.
		b.Instrs = append(b.Instrs[:idx], b.Instrs[idx+1:]...)
	default:
		// Grow by k-1 slots and shift the tail right in place (copy is a
		// memmove, so the overlap is fine), then write the replacements.
		old := len(b.Instrs)
		for i := 1; i < k; i++ {
			b.Instrs = append(b.Instrs, nil)
		}
		copy(b.Instrs[idx+k:], b.Instrs[idx+1:old])
		for i, cp := range seq {
			b.Instrs[idx+i] = f.NewCopy(cp.Dst, cp.Src)
		}
	}
	return seq
}

// NaiveCount returns the number of copies a naive sequentializer would
// emit, materializing every copy through a private temporary: two copies
// per non-self pair. Used by the ablation benchmark contrasting
// Algorithm 1's optimality.
func NaiveCount(dsts, srcs []ir.VarID) int {
	n := 0
	for i := range dsts {
		if dsts[i] != srcs[i] {
			n += 2
		}
	}
	return n
}
