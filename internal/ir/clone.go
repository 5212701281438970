package ir

// Clone returns a deep copy of f: fresh blocks, instructions, and variable
// records, with edges rewired to the copies. The benchmark harness
// translates each function once per configuration, so the original must
// stay pristine. The copy's records come from its own arenas (slab.go), so
// a clone costs one allocation per arena chunk rather than one per object.
func Clone(f *Func) *Func {
	return CloneInto(NewFunc(f.Name), f)
}

// CloneInto rebuilds dst as a deep copy of src and returns dst. All of
// dst's previous contents are discarded; its block records, slice backing
// arrays, and arenas are reused, so in steady state — cloning the same
// pristine template into the same destination between translations, as
// perfbench and BenchmarkTranslate restore their inputs — the copy
// performs no heap allocation at all. dst and src must be different functions, and nothing
// may retain pointers into dst's previous incarnation.
func CloneInto(dst, src *Func) *Func {
	if dst == src {
		panic("ir: CloneInto onto itself")
	}
	dst.Name = src.Name
	dst.NumParams = src.NumParams
	dst.resetArenas()

	// Variables: value-copy every record into arena storage.
	dst.Vars = growVars(dst.Vars[:0], len(src.Vars))
	for i, v := range src.Vars {
		nv := dst.vars.alloc()
		*nv = *v
		dst.Vars[i] = nv
	}

	// Blocks: reuse dst's old block records where available so their
	// Preds/Succs/Phis/Instrs backing arrays survive; surplus records go to
	// the spare list, shortfalls draw from it.
	old := dst.Blocks
	for i := len(src.Blocks); i < len(old); i++ {
		dst.retireBlock(old[i])
	}
	dst.Blocks = growBlocks(dst.Blocks[:0], len(src.Blocks))
	for i, b := range src.Blocks {
		var nb *Block
		if i < len(old) {
			nb = old[i]
			nb.Preds = nb.Preds[:0]
			nb.Succs = nb.Succs[:0]
			nb.Phis = nb.Phis[:0]
			nb.Instrs = nb.Instrs[:0]
		} else {
			nb = dst.takeBlock()
		}
		nb.ID, nb.Name, nb.Freq = b.ID, b.Name, b.Freq
		dst.Blocks[i] = nb
	}
	for i, b := range src.Blocks {
		nb := dst.Blocks[i]
		for _, p := range b.Preds {
			nb.Preds = append(nb.Preds, dst.Blocks[p.ID])
		}
		for _, s := range b.Succs {
			nb.Succs = append(nb.Succs, dst.Blocks[s.ID])
		}
		for _, in := range b.Phis {
			nb.Phis = append(nb.Phis, cloneInstrInto(dst, in))
		}
		for _, in := range b.Instrs {
			nb.Instrs = append(nb.Instrs, cloneInstrInto(dst, in))
		}
	}
	dst.MarkCFGMutated()
	return dst
}

// cloneInstrInto copies one instruction into dst's arenas.
func cloneInstrInto(dst *Func, in *Instr) *Instr {
	ni := dst.instrs.alloc()
	ni.Op, ni.Aux = in.Op, in.Aux
	if len(in.Defs) > 0 {
		ni.Defs = dst.ids.alloc(len(in.Defs))
		copy(ni.Defs, in.Defs)
	}
	if len(in.Uses) > 0 {
		ni.Uses = dst.ids.alloc(len(in.Uses))
		copy(ni.Uses, in.Uses)
	}
	return ni
}

// growVars returns s extended to length n, reusing its capacity.
func growVars(s []*Var, n int) []*Var {
	if cap(s) < n {
		return make([]*Var, n)
	}
	return s[:n]
}

// growBlocks returns s extended to length n, reusing its capacity.
func growBlocks(s []*Block, n int) []*Block {
	if cap(s) < n {
		return make([]*Block, n)
	}
	return s[:n]
}
