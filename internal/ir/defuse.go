package ir

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Slot numbering inside a block: all φ-functions execute in parallel at
// slot 0; body instruction i occupies slot i+1. φ arguments are uses at the
// end of the corresponding predecessor and are recorded with slot
// PhiUseSlot in that predecessor.
const PhiUseSlot = math.MaxInt32

// SlotOfInstr returns the slot of body instruction index i.
func SlotOfInstr(i int) int32 { return int32(i + 1) }

// UseSite locates one use of a variable.
type UseSite struct {
	Block int32
	Slot  int32 // PhiUseSlot for φ uses (at the very end of Block)
	Instr *Instr
}

// before orders use sites by (block, slot) — the order every use list is
// kept in, so per-block queries are binary searches.
func (u UseSite) before(block int32, slot int32) bool {
	return u.Block < block || (u.Block == block && u.Slot < slot)
}

// DefUse indexes the unique definition and all uses of every variable of an
// SSA-form function. Variables without a definition (possible for function
// universes that grew speculatively) report DefBlock -1.
//
// Each use list is kept sorted by (block, slot); AddUse and RemoveUse
// preserve the order, which is what lets interference queries answer "is
// there a use of v in block b after slot s" with a binary search instead of
// a scan of the whole list.
type DefUse struct {
	f        *Func
	defBlock []int32
	defSlot  []int32
	defInstr []*Instr
	uses     [][]UseSite

	// Working state of a build, kept so Rebuild reuses it: per-variable use
	// counts and the array the use lists are carved from.
	counts  []int32
	backing []UseSite
}

// NewDefUse builds the index. The function must be in SSA form (each
// variable defined at most once); a second definition panics.
func NewDefUse(f *Func) *DefUse {
	du := &DefUse{}
	du.Rebuild(f)
	return du
}

// reuse returns s with length n, reusing its backing array when it is large
// enough. Elements past n are zeroed first, so a shrunken array keeps
// nothing of a previous, larger function reachable; the first n elements
// are unspecified.
func reuse[T any](s []T, n int) []T {
	if n < len(s) {
		clear(s[n:])
	}
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Rebuild indexes f in place, reusing du's arrays, so a batch worker
// indexes every function it translates in the same memory. Like NewDefUse
// it panics on a second definition, leaving du unusable until the next
// successful Rebuild.
//
// The use lists are carved out of one shared backing array: a counting pass
// sizes every variable's region, a fill pass appends into it. Building the
// index therefore costs a constant number of allocations instead of one per
// variable, and none once the arrays are large enough; each list's capacity
// equals its length, so a later AddUse that outgrows a region reallocates
// that list privately and can never clobber a neighbour's.
func (du *DefUse) Rebuild(f *Func) {
	n := len(f.Vars)
	du.f = f
	du.defBlock = reuse(du.defBlock, n)
	du.defSlot = reuse(du.defSlot, n)
	du.defInstr = reuse(du.defInstr, n)
	du.uses = reuse(du.uses, n)
	du.counts = reuse(du.counts, n)
	for i := range du.defBlock {
		du.defBlock[i] = -1
	}
	clear(du.defInstr)
	clear(du.uses)
	clear(du.counts)
	def := func(v VarID, b int, slot int32, in *Instr) {
		if du.defBlock[v] >= 0 {
			panic("ir: variable " + f.VarName(v) + " defined twice (not SSA)")
		}
		du.defBlock[v] = int32(b)
		du.defSlot[v] = slot
		du.defInstr[v] = in
	}

	// Pass 1: record definitions, count uses per variable.
	counts := du.counts
	total := 0
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			def(in.Defs[0], b.ID, 0, in)
			for _, u := range in.Uses {
				counts[u]++
				total++
			}
		}
		for i, in := range b.Instrs {
			slot := SlotOfInstr(i)
			for _, d := range in.Defs {
				def(d, b.ID, slot, in)
			}
			for _, u := range in.Uses {
				counts[u]++
				total++
			}
		}
	}

	// Carve per-variable regions out of one backing array.
	du.backing = reuse(du.backing, total)
	off := 0
	for v, c := range counts {
		if c == 0 {
			continue
		}
		du.uses[v] = du.backing[off : off : off+int(c)]
		off += int(c)
	}

	// Pass 2: fill the regions (appends stay within the exact capacities).
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			for i, u := range in.Uses {
				du.uses[u] = append(du.uses[u], UseSite{Block: int32(b.Preds[i].ID), Slot: PhiUseSlot, Instr: in})
			}
		}
		for i, in := range b.Instrs {
			slot := SlotOfInstr(i)
			for _, u := range in.Uses {
				du.uses[u] = append(du.uses[u], UseSite{Block: int32(b.ID), Slot: slot, Instr: in})
			}
		}
	}

	// φ uses are recorded while visiting the φ block, not the predecessor,
	// so the collected lists are not yet (block, slot)-sorted.
	for _, us := range du.uses {
		if !sortedUses(us) {
			slices.SortStableFunc(us, compareUses)
		}
	}
}

// compareUses orders use sites by (block, slot).
func compareUses(a, b UseSite) int {
	if c := cmp.Compare(a.Block, b.Block); c != 0 {
		return c
	}
	return cmp.Compare(a.Slot, b.Slot)
}

// sortedUses reports whether us is already (block, slot)-sorted.
func sortedUses(us []UseSite) bool {
	for i := 1; i < len(us); i++ {
		if us[i].before(us[i-1].Block, us[i-1].Slot) {
			return false
		}
	}
	return true
}

// Func returns the indexed function.
func (du *DefUse) Func() *Func { return du.f }

// HasDef reports whether v has a definition.
func (du *DefUse) HasDef(v VarID) bool { return du.defBlock[v] >= 0 }

// DefBlock returns the ID of the defining block of v (-1 if undefined).
func (du *DefUse) DefBlock(v VarID) int { return int(du.defBlock[v]) }

// DefSlot returns the slot of the definition of v within its block.
func (du *DefUse) DefSlot(v VarID) int32 { return du.defSlot[v] }

// DefInstr returns the defining instruction of v, or nil.
func (du *DefUse) DefInstr(v VarID) *Instr { return du.defInstr[v] }

// Uses returns the use sites of v, sorted by (block, slot). The returned
// slice must not be mutated.
func (du *DefUse) Uses(v VarID) []UseSite { return du.uses[v] }

// searchUse returns the index of the first use of v that is not before
// (block, slot) — the lower bound of the key in the sorted use list.
func (du *DefUse) searchUse(v VarID, block int32, slot int32) int {
	us := du.uses[v]
	return sort.Search(len(us), func(i int) bool { return !us[i].before(block, slot) })
}

// UsedInBlockAfter reports whether v has a use in block strictly after
// slot, in O(log uses) — the query LiveAfter turns into a binary search.
func (du *DefUse) UsedInBlockAfter(v VarID, block int, slot int32) bool {
	if slot == math.MaxInt32 {
		return false // nothing lies after a φ use
	}
	i := du.searchUse(v, int32(block), slot+1)
	us := du.uses[v]
	return i < len(us) && us[i].Block == int32(block)
}

// HasUseAt reports whether v has a use at exactly (block, slot); with
// slot == PhiUseSlot this asks "does some φ of a successor read v along an
// edge out of block".
func (du *DefUse) HasUseAt(v VarID, block int, slot int32) bool {
	i := du.searchUse(v, int32(block), slot)
	us := du.uses[v]
	return i < len(us) && us[i].Block == int32(block) && us[i].Slot == slot
}

// UsedOutsideBlock reports whether v has a use in some block other than
// block. Because the list is block-sorted, checking its ends suffices.
func (du *DefUse) UsedOutsideBlock(v VarID, block int) bool {
	us := du.uses[v]
	return len(us) > 0 && (us[0].Block != int32(block) || us[len(us)-1].Block != int32(block))
}

// grow extends the index when the function universe gained variables.
func (du *DefUse) grow() {
	for len(du.defBlock) < len(du.f.Vars) {
		du.defBlock = append(du.defBlock, -1)
		du.defSlot = append(du.defSlot, 0)
		du.defInstr = append(du.defInstr, nil)
		du.uses = append(du.uses, nil)
	}
}

// AddDef records a new definition of v at (block, slot); v must be a fresh
// variable without a prior definition. Used by the virtualized translator
// when it materializes a copy into a pre-created parallel copy, which keeps
// every existing slot stable.
func (du *DefUse) AddDef(v VarID, block int, slot int32, in *Instr) {
	du.grow()
	if du.defBlock[v] >= 0 {
		panic("ir: AddDef on already-defined variable " + du.f.VarName(v))
	}
	du.defBlock[v] = int32(block)
	du.defSlot[v] = slot
	du.defInstr[v] = in
}

// ReplaceDef moves the recorded definition of v to (block, slot, in) — used
// when the virtualized translator turns a φ result into a parallel-copy
// destination.
func (du *DefUse) ReplaceDef(v VarID, block int, slot int32, in *Instr) {
	du.grow()
	du.defBlock[v] = int32(block)
	du.defSlot[v] = slot
	du.defInstr[v] = in
}

// AddUse records a new use of v at (block, slot), inserting it at its
// sorted position.
func (du *DefUse) AddUse(v VarID, block int, slot int32, in *Instr) {
	du.grow()
	i := du.searchUse(v, int32(block), slot)
	us := append(du.uses[v], UseSite{})
	copy(us[i+1:], us[i:])
	us[i] = UseSite{Block: int32(block), Slot: slot, Instr: in}
	du.uses[v] = us
}

// RemoveUse deletes one recorded use of v at (block, slot) by the given
// instruction, preserving the sorted order. It panics when no such use
// exists (an indexing bug).
func (du *DefUse) RemoveUse(v VarID, block int, slot int32, in *Instr) {
	us := du.uses[v]
	for i := du.searchUse(v, int32(block), slot); i < len(us); i++ {
		u := us[i]
		if int(u.Block) != block || u.Slot != slot {
			break // past the key: the use is not recorded
		}
		if u.Instr == in {
			du.uses[v] = append(us[:i], us[i+1:]...)
			return
		}
	}
	panic("ir: RemoveUse of unrecorded use of " + du.f.VarName(v))
}
