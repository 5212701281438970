package ir

// Slab allocation for the per-function IR storage. Out-of-SSA translation
// mints objects at a high rate — one Instr per inserted copy, one Var per
// primed variable, one or two small VarID slices per instruction — and the
// batch driver's steady state turns every one of those heap allocations
// into GC pressure. Each Func therefore owns three chunked arenas:
//
//   - an Instr arena handing out instruction records,
//   - a Var arena handing out variable records,
//   - a VarID arena handing out small operand slices (exact capacity, so an
//     append that outgrows one simply reallocates privately and can never
//     clobber a neighbouring slice).
//
// Arena memory lives exactly as long as the function: nothing is freed
// piecemeal, and CloneInto rewinds all three arenas when it rebuilds the
// function in place, which is what makes steady-state batch translation
// allocation-free (amortized). Objects obtained from a Func's arenas must
// not outlive it or be moved into another Func.

const (
	instrChunk = 64  // Instr records per arena chunk
	varChunk   = 64  // Var records per arena chunk
	idChunk    = 256 // VarID operand slots per arena chunk
)

// instrArena hands out Instr records from chunked backing arrays.
type instrArena struct {
	chunks [][]Instr
	ci     int // chunk cursor
	n      int // used slots in chunks[ci]
}

func (a *instrArena) alloc() *Instr {
	for a.ci < len(a.chunks) && a.n == len(a.chunks[a.ci]) {
		a.ci++
		a.n = 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Instr, instrChunk))
	}
	in := &a.chunks[a.ci][a.n]
	a.n++
	*in = Instr{}
	return in
}

// reset rewinds the arena, keeping the chunks for reuse. Only safe when no
// previously handed-out record is referenced anymore.
func (a *instrArena) reset() { a.ci, a.n = 0, 0 }

// reserve gives an empty arena one chunk of exactly n records, for a
// caller that knows its whole need up front (the binary decoder).
func (a *instrArena) reserve(n int) {
	if n > 0 {
		a.chunks = append(a.chunks, make([]Instr, n))
	}
}

// varArena hands out Var records from chunked backing arrays.
type varArena struct {
	chunks [][]Var
	ci     int
	n      int
}

func (a *varArena) alloc() *Var {
	for a.ci < len(a.chunks) && a.n == len(a.chunks[a.ci]) {
		a.ci++
		a.n = 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]Var, varChunk))
	}
	v := &a.chunks[a.ci][a.n]
	a.n++
	*v = Var{}
	return v
}

func (a *varArena) reset() { a.ci, a.n = 0, 0 }

func (a *varArena) reserve(n int) {
	if n > 0 {
		a.chunks = append(a.chunks, make([]Var, n))
	}
}

// idArena hands out exact-capacity []VarID slices from chunked backing.
type idArena struct {
	chunks [][]VarID
	ci     int
	n      int
}

// alloc returns a zeroed slice of length and capacity n. Slices larger than
// a chunk get dedicated backing.
func (a *idArena) alloc(n int) []VarID {
	if n == 0 {
		return nil
	}
	if n > idChunk {
		return make([]VarID, n)
	}
	for a.ci < len(a.chunks) && a.n+n > len(a.chunks[a.ci]) {
		a.ci++
		a.n = 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]VarID, idChunk))
	}
	s := a.chunks[a.ci][a.n : a.n+n : a.n+n]
	a.n += n
	for i := range s {
		s[i] = 0
	}
	return s
}

func (a *idArena) reset() { a.ci, a.n = 0, 0 }

// NewInstr returns a fresh zeroed instruction with the given opcode,
// allocated from the function's instruction arena. The record belongs to f:
// it lives until the function is discarded or rebuilt with CloneInto.
func (f *Func) NewInstr(op Op) *Instr {
	in := f.instrs.alloc()
	in.Op = op
	return in
}

// NewOperands returns a zeroed []VarID of length n from the function's
// operand arena. The capacity is exactly n, so appending beyond it
// reallocates privately and never corrupts a neighbouring slice.
func (f *Func) NewOperands(n int) []VarID { return f.ids.alloc(n) }

// NewCopy returns a plain copy instruction dst ← src with arena-allocated
// operand lists.
func (f *Func) NewCopy(dst, src VarID) *Instr {
	in := f.NewInstr(OpCopy)
	in.Defs = f.ids.alloc(1)
	in.Uses = f.ids.alloc(1)
	in.Defs[0] = dst
	in.Uses[0] = src
	return in
}

// resetArenas rewinds all three arenas; CloneInto calls it before
// rebuilding the function, when every old record is dead.
func (f *Func) resetArenas() {
	f.instrs.reset()
	f.vars.reset()
	f.ids.reset()
}
