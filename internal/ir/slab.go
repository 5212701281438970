package ir

// Slab allocation for the per-function IR storage. Out-of-SSA translation
// mints objects at a high rate — one Instr per inserted copy, one Var per
// primed variable, one or two small VarID slices per instruction — and the
// batch driver's steady state turns every one of those heap allocations
// into GC pressure. Each Func therefore owns three chunked arenas:
//
//   - two record arenas (arena[Instr], arena[Var]) handing out instruction
//     and variable records,
//   - a VarID arena handing out small operand slices (exact capacity, so an
//     append that outgrows one simply reallocates privately and can never
//     clobber a neighbouring slice).
//
// Arena memory lives exactly as long as the function: nothing is freed
// piecemeal, and CloneInto and DecodeBinaryInto rewind all three arenas
// when they rebuild the function in place and reserve its whole need in
// at most one chunk each, which is what makes steady-state batch
// translation allocation-free (amortized). Objects obtained from a Func's
// arenas must not outlive it or be moved into another Func.

const (
	recordChunk = 64  // Instr or Var records per arena chunk
	idChunk     = 256 // VarID operand slots per arena chunk
)

// arena hands out records (instructions, variables) from chunked backing
// arrays.
type arena[T any] struct {
	chunks [][]T
	ci     int // chunk cursor
	n      int // used slots in chunks[ci]
}

// alloc returns a zeroed record.
func (a *arena[T]) alloc() *T {
	for a.ci < len(a.chunks) && a.n == len(a.chunks[a.ci]) {
		a.ci++
		a.n = 0
	}
	if a.ci == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, recordChunk))
	}
	r := &a.chunks[a.ci][a.n]
	a.n++
	var zero T
	*r = zero
	return r
}

// reset rewinds the arena, keeping the chunks for reuse. Only safe when no
// previously handed-out record is referenced anymore.
func (a *arena[T]) reset() { a.ci, a.n = 0, 0 }

// reserve makes room for n more records with at most one allocation, for
// a caller that knows its whole need up front (the binary decoder,
// CloneInto): a chunk of the shortfall rounded up to a multiple of unit.
func (a *arena[T]) reserve(n, unit int) {
	if n -= freeSlots(a.chunks, a.ci, a.n); n > 0 {
		a.chunks = append(a.chunks, make([]T, roundUp(n, unit)))
	}
}

// roundUp rounds n up to a multiple of unit.
func roundUp(n, unit int) int { return (n + unit - 1) / unit * unit }

// freeSlots counts the slots of chunks past the cursor: the rest of chunk ci,
// whose first n slots are taken, and every later chunk.
func freeSlots[T any](chunks [][]T, ci, n int) int {
	for _, c := range chunks[min(ci, len(chunks)):] {
		n -= len(c)
	}
	return -n
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

// reserve makes room for n more operand slots with at most one
// allocation. A slice never straddles two chunks, so the free slots can
// fall short of n by the unusable chunk tails; when they fall short at
// all, one chunk of the whole n, in whole chunks, guarantees the rest.
func (a *idArena) reserve(n int) {
	if n > freeSlots(a.chunks, a.ci, a.n) {
		a.chunks = append(a.chunks, make([]VarID, roundUp(n, idChunk)))
	}
}

// NewInstr returns a fresh zeroed instruction with the given opcode,
// allocated from the function's instruction arena. The record belongs to f:
// it lives until the function is discarded or rebuilt (CloneInto,
// DecodeBinaryInto).
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

// resetArenas rewinds all three arenas; CloneInto and DecodeBinaryInto
// call it before rebuilding the function, when every old record is dead.
func (f *Func) resetArenas() {
	f.instrs.reset()
	f.vars.reset()
	f.ids.reset()
}
