package cfggen

import (
	"repro/internal/ir"
)

// NearDuplicateProfile describes a memoization workload: a base corpus plus
// K near-duplicate clones of every base function. Real compile servers and
// JITs see this shape constantly — template instantiations, re-JITted
// methods, recompiled translation units — and it is the workload a
// translation memo (outofssa.Memo) exists for. Each clone differs from its
// base by one small local edit, cycling through three kinds:
//
//	j%3 == 0  rename-only: every variable and block renamed, structure
//	          untouched. The structural fingerprint ignores names, so these
//	          clones are guaranteed memo hits.
//	j%3 == 1  one dead extra copy (fresh const + copy of it) inserted
//	          before the entry block's terminator: a new fingerprint, the
//	          same observable behaviour.
//	j%3 == 2  one semantics-preserving swapped branch: the first
//	          conditional branch with distinct targets is rewritten to
//	          branch on (cond == 0) with its successors swapped. Falls back
//	          to rename-only when the function has no such branch.
//
// Generation is fully deterministic from Base.Seed and EditSeed. Existing
// profiles and corpora are untouched — near-duplication is a separate
// expansion over Generate's output.
type NearDuplicateProfile struct {
	// Base generates the underlying corpus (in SSA form, via Generate).
	Base Profile
	// Clones is the number of near-duplicates minted per base function.
	Clones int
	// EditSeed varies the constants the structural edits introduce.
	EditSeed int64
}

// GenerateNearDuplicates builds the base corpus and interleaves each base
// function with its clones (base, its K clones, next base, …), so a single
// in-order pass over the result already exercises memo hits.
func GenerateNearDuplicates(p NearDuplicateProfile) []*ir.Func {
	base := Generate(p.Base)
	out := make([]*ir.Func, 0, len(base)*(p.Clones+1))
	for i, f := range base {
		out = append(out, f)
		for j := 0; j < p.Clones; j++ {
			c := ir.Clone(f)
			c.Name = f.Name + "_dup" + itoa(j)
			switch j % 3 {
			case 0:
				renameAll(c, j)
			case 1:
				addDeadCopy(c, p.EditSeed+int64(i)*31+int64(j))
			case 2:
				if !swapBranch(c, p.EditSeed+int64(i)*31+int64(j)) {
					renameAll(c, j)
				}
			}
			out = append(out, c)
		}
	}
	return out
}

// renameAll renames every variable and block with a clone-unique suffix.
// Names are display-only: the structural fingerprint, the analyses, and the
// translation are all name-insensitive, so a renamed clone is structurally
// identical to its base. Existing printable names stay unique because the
// base's names were.
func renameAll(f *ir.Func, j int) {
	suffix := "_d" + itoa(j)
	for id := range f.Vars {
		f.Vars[id].Name = f.VarName(ir.VarID(id)) + suffix
	}
	for _, b := range f.Blocks {
		b.Name += suffix
	}
}

// addDeadCopy inserts `c = const k; d = copy c` just before the entry
// block's terminator: two fresh single-definition variables, never used —
// strict SSA is preserved and the observable behaviour is unchanged, but
// the fingerprint moves.
func addDeadCopy(f *ir.Func, seed int64) {
	b := f.Entry()
	cv := f.NewVar("dupc" + itoa(int(seed&0xffff)))
	dv := f.NewVar("dupd" + itoa(int(seed&0xffff)))
	ins := []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{cv}, Aux: seed%97 + 1},
		{Op: ir.OpCopy, Defs: []ir.VarID{dv}, Uses: []ir.VarID{cv}},
	}
	at := len(b.Instrs)
	if at > 0 && b.Instrs[at-1].Op.IsTerminator() {
		at--
	}
	b.Instrs = append(b.Instrs[:at], append(ins, b.Instrs[at:]...)...)
	f.MarkCodeMutated()
}

// swapBranch rewrites the first conditional branch with distinct targets to
// test the negated condition with swapped successors: cond != 0 took
// Succs[0] before; afterwards (cond == 0) is 0 exactly then, and the old
// Succs[0] now sits in Succs[1]. Successor φ operands are indexed by the
// successors' Preds lists, which the swap does not touch. Returns false
// when the function has no such branch.
func swapBranch(f *ir.Func, seed int64) bool {
	for _, b := range f.Blocks {
		n := len(b.Instrs)
		if n == 0 {
			continue
		}
		t := b.Instrs[n-1]
		if t.Op != ir.OpBranch || b.Succs[0] == b.Succs[1] {
			continue
		}
		zv := f.NewVar("dupz" + itoa(int(seed&0xffff)))
		nv := f.NewVar("dupn" + itoa(int(seed&0xffff)))
		ins := []*ir.Instr{
			{Op: ir.OpConst, Defs: []ir.VarID{zv}, Aux: 0},
			{Op: ir.OpCmpEQ, Defs: []ir.VarID{nv}, Uses: []ir.VarID{t.Uses[0], zv}},
		}
		b.Instrs = append(b.Instrs[:n-1], append(ins, t)...)
		t.Uses[0] = nv
		b.Succs[0], b.Succs[1] = b.Succs[1], b.Succs[0]
		f.MarkCFGMutated()
		return true
	}
	return false
}
