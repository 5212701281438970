package core

import (
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/ir"
	"repro/internal/sreedhar"
)

// rewrite leaves CSSA (Section II-B): every variable is renamed to its
// congruence-class representative, φ-functions are removed, coalesced and
// shared copies disappear, and the remaining parallel copies are
// sequentialized with the optimal algorithm of Section III-C.
//
// sc supplies the phase's working state: the duplicate-destination stamps
// of pruneParCopy and the sequentializer's tables.
func rewrite(f *ir.Func, classes *congruence.Classes, du *ir.DefUse,
	affs []sreedhar.Affinity, statuses []coalesce.Status,
	keepParallel bool, st *Stats, sc *Scratch) {

	// Copies removed by sharing are deleted although their endpoints are in
	// different classes: another member of the destination class already
	// carries the value. Delete the pairs before renaming, while operand
	// identities still match the affinity records.
	for i, s := range statuses {
		if s != coalesce.SharedRemoved {
			continue
		}
		a := affs[i]
		switch a.Instr.Op {
		case ir.OpCopy:
			a.Instr.Op = ir.OpNop
			a.Instr.Defs, a.Instr.Uses = nil, nil
		case ir.OpParCopy:
			removePair(a.Instr, a.Dst, a.Src)
		}
	}

	// Propagate register labels to the class representatives so pinning
	// survives in the generated code.
	for v := range f.Vars {
		if r := classes.Reg(ir.VarID(v)); r != "" {
			f.Vars[classes.Find(ir.VarID(v))].Reg = r
		}
	}

	// Pair usefulness, judged before renaming: a copy whose destination has
	// no recorded use writes a value nobody reads; keeping it after classes
	// merged could even clobber a live class member, so such pairs are
	// dropped, and duplicate-destination dedup prefers the used pair.
	liveDst := func(v ir.VarID) bool { return len(du.Uses(v)) > 0 }

	for _, b := range f.Blocks {
		// φ-functions dissolve into their congruence class; the truncation
		// keeps the backing array for the block's next incarnation.
		b.Phis = b.Phis[:0]
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpNop {
				continue
			}
			if in.Op == ir.OpParCopy {
				dropDeadPairs(in, liveDst)
			}
			if in.Op == ir.OpCopy && !liveDst(in.Defs[0]) {
				continue
			}
			for i, d := range in.Defs {
				in.Defs[i] = classes.Find(d)
			}
			for i, u := range in.Uses {
				in.Uses[i] = classes.Find(u)
			}
			switch in.Op {
			case ir.OpCopy:
				if in.Defs[0] == in.Uses[0] {
					continue // coalesced: self copy
				}
			case ir.OpParCopy:
				pruneParCopy(in, sc, len(f.Vars))
				if len(in.Defs) == 0 {
					continue
				}
			}
			out = append(out, in)
		}
		b.Instrs = out
	}

	if !keepParallel {
		fresh := func() ir.VarID { return f.NewVar("swap") }
		for _, b := range f.Blocks {
			for idx := 0; idx < len(b.Instrs); idx++ {
				in := b.Instrs[idx]
				if in.Op != ir.OpParCopy {
					continue
				}
				pairs := len(in.Defs)
				seq := sc.par.SequentializeInstr(f, b, idx, fresh)
				st.CycleCopies += len(seq) - pairs
				idx += len(seq) - 1
			}
		}
	}

	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCopy {
				st.FinalCopies++
			}
		}
	}
}

// removePair deletes the dst←src component from a parallel copy.
func removePair(in *ir.Instr, dst, src ir.VarID) {
	for i, d := range in.Defs {
		if d == dst && in.Uses[i] == src {
			in.Defs = append(in.Defs[:i], in.Defs[i+1:]...)
			in.Uses = append(in.Uses[:i], in.Uses[i+1:]...)
			return
		}
	}
}

// dropDeadPairs removes parallel-copy components whose destination is never
// used (pre-renaming identities).
func dropDeadPairs(in *ir.Instr, liveDst func(ir.VarID) bool) {
	defs, uses := in.Defs[:0], in.Uses[:0]
	for i, d := range in.Defs {
		if !liveDst(d) {
			continue
		}
		defs = append(defs, d)
		uses = append(uses, in.Uses[i])
	}
	in.Defs, in.Uses = defs, uses
}

// pruneParCopy drops self pairs and duplicate destinations after renaming.
// Two live pairs writing the same destination can only survive coalescing
// when their sources carry the same value (paper, Section III-C), so
// keeping the first is safe; dead pairs were removed beforehand. The
// duplicate check uses the scratch's epoch-stamped table.
func pruneParCopy(in *ir.Instr, sc *Scratch, nvars int) {
	stamp, epoch := sc.stampFor(nvars)
	defs, uses := in.Defs[:0], in.Uses[:0]
	for i, d := range in.Defs {
		s := in.Uses[i]
		if d == s || stamp[d] == epoch {
			continue
		}
		stamp[d] = epoch
		defs = append(defs, d)
		uses = append(uses, s)
	}
	in.Defs, in.Uses = defs, uses
}
