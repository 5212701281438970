package ir

// Clone returns a deep copy of f: fresh blocks, instructions, and variable
// records, with edges rewired to the copies. The benchmark harness
// translates each function once per configuration, so the original must
// stay pristine. The copy's records come from its own arenas (slab.go) and
// its block lists from a few arrays sized by f's totals, so a clone costs
// a fixed number of allocations rather than one per object.
func Clone(f *Func) *Func {
	return CloneInto(NewFunc(f.Name), f)
}

// CloneInto rebuilds dst as a deep copy of src and returns dst. All of
// dst's previous contents are discarded; its block records and arenas are
// reused. A record takes the block it took at dst's previous rebuild
// (CloneInto or DecodeBinaryInto), wherever edge splits and cleanup moved
// it since. Every list of every record dst holds, the spare records'
// included, is carved from two arrays dst keeps for the purpose, one of
// edges and one of instructions, and keeps the capacity it had grown to,
// clamped so that an append past it reallocates privately instead of
// overwriting its neighbour. So restoring the same pristine template into
// the same destination between translations, as perfbench does,
// allocates nothing from the third call on, and cloning into a freshly
// parsed function takes a fixed number of allocations whatever the
// function's size. dst and src must be different functions, and nothing
// may retain pointers into dst's previous incarnation.
func CloneInto(dst, src *Func) *Func {
	if dst == src {
		panic("ir: CloneInto onto itself")
	}
	dst.Name = src.Name
	dst.NumParams = src.NumParams
	dst.resetArenas()
	// Whole chunks, as growing chunk by chunk would hold: the chunk tails
	// take the copies and variables a translation of the clone mints.
	_, instrs, operands := src.listTotals()
	dst.vars.reserve(len(src.Vars), recordChunk)
	dst.instrs.reserve(instrs, recordChunk)
	dst.ids.reserve(operands)

	// Variables: value-copy every record into arena storage.
	dst.Vars = Resize(dst.Vars, len(src.Vars))
	for i, v := range src.Vars {
		nv := dst.vars.alloc()
		*nv = *v
		dst.Vars[i] = nv
	}

	dst.placeBlocks(len(src.Blocks))
	edgeCap, codeCap := 0, 0
	for i, b := range src.Blocks {
		nb := dst.Blocks[i]
		nb.ID, nb.Name, nb.Freq = b.ID, b.Name, b.Freq
		edgeCap += max(len(b.Preds), cap(nb.Preds)) + max(len(b.Succs), cap(nb.Succs))
		codeCap += max(len(b.Phis), cap(nb.Phis)) + max(len(b.Instrs), cap(nb.Instrs))
	}
	for _, r := range dst.spareBlocks {
		edgeCap += cap(r.Preds) + cap(r.Succs)
		codeCap += cap(r.Phis) + cap(r.Instrs)
	}

	// Lists: carve them all, so no list still points into a region of
	// the arrays that another list receives.
	dst.edgeStore = Resize(dst.edgeStore, edgeCap)
	dst.codeStore = Resize(dst.codeStore, codeCap)
	edges, code := dst.edgeStore, dst.codeStore
	for i, b := range src.Blocks {
		nb := dst.Blocks[i]
		nb.Preds = carveList(&edges, nb.Preds, len(b.Preds))
		for j, p := range b.Preds {
			nb.Preds[j] = dst.Blocks[p.ID]
		}
		nb.Succs = carveList(&edges, nb.Succs, len(b.Succs))
		for j, s := range b.Succs {
			nb.Succs[j] = dst.Blocks[s.ID]
		}
		nb.Phis = carveList(&code, nb.Phis, len(b.Phis))
		for j, in := range b.Phis {
			nb.Phis[j] = cloneInstrInto(dst, in)
		}
		nb.Instrs = carveList(&code, nb.Instrs, len(b.Instrs))
		for j, in := range b.Instrs {
			nb.Instrs[j] = cloneInstrInto(dst, in)
		}
	}
	for _, r := range dst.spareBlocks {
		r.Preds = carveList(&edges, r.Preds, 0)
		r.Succs = carveList(&edges, r.Succs, 0)
		r.Phis = carveList(&code, r.Phis, 0)
		r.Instrs = carveList(&code, r.Instrs, 0)
	}
	dst.MarkCFGMutated()
	return dst
}

// placeBlocks makes f.Blocks n block records long for a rebuild, with
// IDs 0 to n-1, and leaves the lists and every other field for the
// caller to fill. Each record goes back to the block it took at the
// previous rebuild; the other records become spares, and the blocks left
// over take spares and then records from one fresh array.
func (f *Func) placeBlocks(n int) {
	pool := append(f.spareBlocks, f.Blocks...)
	f.Blocks = Resize(f.Blocks, n)
	clear(f.Blocks)
	spares := pool[:0]
	for _, r := range pool {
		if i := r.cloned - 1; i >= 0 && i < n && f.Blocks[i] == nil {
			f.Blocks[i] = r
		} else {
			spares = append(spares, r)
		}
	}
	var fresh []Block
	if k := n - len(pool); k > 0 {
		fresh = make([]Block, k)
	}
	for i, nb := range f.Blocks {
		switch {
		case nb != nil:
		case len(spares) > 0:
			nb, spares = spares[len(spares)-1], spares[:len(spares)-1]
		default:
			nb, fresh = &fresh[0], fresh[1:]
		}
		nb.ID, nb.cloned = i, i+1
		f.Blocks[i] = nb
	}
	for _, r := range spares {
		r.cloned = 0
	}
	f.spareBlocks = spares
}

// carveList cuts a list of length n from the front of *store, with the
// capacity of old where that is larger, clamped there.
func carveList[T any](store *[]T, old []T, n int) []T {
	c := max(n, cap(old))
	s := (*store)[:n:c]
	*store = (*store)[c:]
	return s
}

// listTotals sums the lengths of f's edge lists (Preds and Succs),
// instruction lists (Phis and Instrs) and operand lists (Defs and Uses).
func (f *Func) listTotals() (edges, instrs, operands int) {
	for _, b := range f.Blocks {
		edges += len(b.Preds) + len(b.Succs)
		instrs += len(b.Phis) + len(b.Instrs)
		for _, in := range b.Phis {
			operands += len(in.Defs) + len(in.Uses)
		}
		for _, in := range b.Instrs {
			operands += len(in.Defs) + len(in.Uses)
		}
	}
	return edges, instrs, operands
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
