package ir

// Builder is a convenience wrapper for constructing functions in tests,
// examples, and the synthetic workload generator.
type Builder struct {
	F   *Func
	Cur *Block
}

// NewBuilder returns a builder positioned at a fresh entry block.
func NewBuilder(name string) *Builder {
	f := NewFunc(name)
	return &Builder{F: f, Cur: f.NewBlock("entry")}
}

// Block creates a new block and returns it without changing the insertion
// point.
func (bd *Builder) Block(name string) *Block { return bd.F.NewBlock(name) }

// SetBlock moves the insertion point.
func (bd *Builder) SetBlock(b *Block) { bd.Cur = b }

func (bd *Builder) emit(in *Instr) *Instr {
	bd.Cur.Instrs = append(bd.Cur.Instrs, in)
	return in
}

// Const emits dst = Aux.
func (bd *Builder) Const(c int64) VarID {
	v := bd.F.NewVar("")
	bd.emit(&Instr{Op: OpConst, Defs: []VarID{v}, Aux: c})
	return v
}

// Param emits dst = param(i).
func (bd *Builder) Param(i int) VarID {
	v := bd.F.NewVar("")
	bd.emit(&Instr{Op: OpParam, Defs: []VarID{v}, Aux: int64(i)})
	if i+1 > bd.F.NumParams {
		bd.F.NumParams = i + 1
	}
	return v
}

// Copy emits dst = src into a fresh variable.
func (bd *Builder) Copy(src VarID) VarID {
	v := bd.F.NewVar("")
	bd.emit(&Instr{Op: OpCopy, Defs: []VarID{v}, Uses: []VarID{src}})
	return v
}

// CopyTo emits dst = src into an existing variable.
func (bd *Builder) CopyTo(dst, src VarID) {
	bd.emit(&Instr{Op: OpCopy, Defs: []VarID{dst}, Uses: []VarID{src}})
}

// Arith emits dst = op(args...) into a fresh variable.
func (bd *Builder) Arith(op Op, args ...VarID) VarID {
	v := bd.F.NewVar("")
	bd.emit(&Instr{Op: op, Defs: []VarID{v}, Uses: args})
	return v
}

// Print emits an observable print of v.
func (bd *Builder) Print(v VarID) { bd.emit(&Instr{Op: OpPrint, Uses: []VarID{v}}) }

// Phi inserts dst = φ(args...) at the top of block b. The argument order
// must match b.Preds.
func (bd *Builder) Phi(b *Block, dst VarID, args ...VarID) *Instr {
	in := &Instr{Op: OpPhi, Defs: []VarID{dst}, Uses: args}
	b.Phis = append(b.Phis, in)
	return in
}

// Jump terminates the current block with an unconditional jump.
func (bd *Builder) Jump(to *Block) {
	bd.emit(&Instr{Op: OpJump})
	AddEdge(bd.Cur, to)
}

// Branch terminates the current block with a conditional branch on cond.
func (bd *Builder) Branch(cond VarID, then, els *Block) {
	bd.emit(&Instr{Op: OpBranch, Uses: []VarID{cond}})
	AddEdge(bd.Cur, then)
	AddEdge(bd.Cur, els)
}

// Ret terminates the current block returning v (or nothing if v == NoVar).
func (bd *Builder) Ret(v VarID) {
	in := &Instr{Op: OpRet}
	if v != NoVar {
		in.Uses = []VarID{v}
	}
	bd.emit(in)
}

// CopyInsertIndex returns the index in b.Instrs where pre-terminator copies
// must be inserted: before the terminator, so that terminator uses read
// after the copies (the Figure 1 subtlety is handled by the interference
// computation, not by moving the point).
func CopyInsertIndex(b *Block) int {
	if t := b.Terminator(); t != nil {
		return len(b.Instrs) - 1
	}
	return len(b.Instrs)
}

// InsertBefore inserts instruction in at position idx of b.Instrs.
func InsertBefore(b *Block, idx int, in *Instr) {
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

// IsCriticalEdge reports whether the edge from → to is critical: from has
// several successors and to has several predecessors.
func IsCriticalEdge(from, to *Block) bool {
	return len(from.Succs) > 1 && len(to.Preds) > 1
}

// SplitEdge inserts a fresh block on the edge from → to and returns it.
// The new block carries the frequency of the edge (approximated by the
// minimum of the endpoint frequencies) and ends with a jump to to.
// φ-functions in to keep their argument positions because the predecessor
// slot of from is taken over by the new block.
func SplitEdge(f *Func, from, to *Block) *Block {
	nb := f.NewBlock(from.Name + "_" + to.Name)
	nb.Freq = from.Freq
	if to.Freq < nb.Freq {
		nb.Freq = to.Freq
	}
	nb.Instrs = append(nb.Instrs, f.NewInstr(OpJump))
	for i, s := range from.Succs {
		if s == to {
			from.Succs[i] = nb
			break
		}
	}
	for i, p := range to.Preds {
		if p == from {
			to.Preds[i] = nb
			break
		}
	}
	// Append into the (truncated) recycled backing rather than allocating
	// fresh one-element slices — edge splitting runs on the steady-state
	// translation path.
	nb.Preds = append(nb.Preds, from)
	nb.Succs = append(nb.Succs, to)
	return nb
}
