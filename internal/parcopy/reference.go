package parcopy

import (
	"fmt"

	"repro/internal/ir"
)

// SequentializeReference is the pre-scratch implementation of Algorithm 1:
// map-based loc/pred tables and a freshly allocated duplicate-destination
// set per run. It is kept as the differential oracle of the scratch engine
// and as part of the pre-pooling path core.Options.ReferenceAlloc selects
// (the reference side of the translate differential tests and of
// BenchmarkTranslate). Results are identical to Scratch.Sequentialize;
// only allocation behavior differs.
func SequentializeReference(dsts, srcs []ir.VarID, fresh func() ir.VarID) []Copy {
	if len(dsts) != len(srcs) {
		panic("parcopy: mismatched parallel copy operand lists")
	}
	seen := make(map[ir.VarID]bool, len(dsts))
	for _, d := range dsts {
		if seen[d] {
			panic(fmt.Sprintf("parcopy: destination %d appears twice in parallel copy", d))
		}
		seen[d] = true
	}
	loc := map[ir.VarID]ir.VarID{}
	pred := map[ir.VarID]ir.VarID{}
	var toDo, ready []ir.VarID
	var out []Copy

	emit := func(dst, src ir.VarID) { out = append(out, Copy{Dst: dst, Src: src}) }

	for i, b := range dsts {
		a := srcs[i]
		if a == b {
			continue
		}
		loc[b] = ir.NoVar
		pred[a] = ir.NoVar
	}
	for i, b := range dsts {
		a := srcs[i]
		if a == b {
			continue
		}
		loc[a] = a
		pred[b] = a
		toDo = append(toDo, b)
	}
	for i, b := range dsts {
		if srcs[i] == b {
			continue
		}
		if loc[b] == ir.NoVar {
			ready = append(ready, b)
		}
	}

	scratch := ir.NoVar
	for len(toDo) > 0 {
		for len(ready) > 0 {
			b := ready[len(ready)-1]
			ready = ready[:len(ready)-1]
			a := pred[b]
			c := loc[a]
			emit(b, c)
			loc[a] = b
			if a == c && pred[a] != ir.NoVar {
				ready = append(ready, a)
			}
		}
		b := toDo[len(toDo)-1]
		toDo = toDo[:len(toDo)-1]
		if b == loc[b] {
			if scratch == ir.NoVar {
				scratch = fresh()
			}
			emit(scratch, b)
			loc[b] = scratch
			ready = append(ready, b)
		}
	}
	return out
}

// SequentializeInstrReference is the pre-scratch instruction rewrite: it
// heap-allocates one instruction and two operand slices per emitted copy
// and splices them in by copying the block tail twice through nested
// appends. Kept alongside SequentializeReference as part of the
// ReferenceAlloc path.
func SequentializeInstrReference(f *ir.Func, b *ir.Block, idx int, fresh func() ir.VarID) []Copy {
	in := b.Instrs[idx]
	if in.Op != ir.OpParCopy {
		panic("parcopy: instruction is not a parallel copy")
	}
	seq := SequentializeReference(in.Defs, in.Uses, fresh)
	repl := make([]*ir.Instr, len(seq))
	for i, cp := range seq {
		repl[i] = &ir.Instr{Op: ir.OpCopy, Defs: []ir.VarID{cp.Dst}, Uses: []ir.VarID{cp.Src}}
	}
	rest := append([]*ir.Instr{}, b.Instrs[idx+1:]...)
	b.Instrs = append(b.Instrs[:idx], append(repl, rest...)...)
	return seq
}
