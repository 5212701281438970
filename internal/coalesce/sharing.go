package coalesce

import (
	"cmp"
	"slices"

	"repro/internal/ir"
	"repro/internal/sreedhar"
)

// Share runs the paper's copy-sharing post-pass (Sections III-B and III-E,
// variant "Sharing") over the affinities that survived coalescing. For a
// remaining copy a ↦ b, if some variable c with V(c) = V(a) is live just
// after the copy, then c already carries the value b needs:
//
//  1. if class(c) == class(b) ≠ class(a), the copy is redundant outright;
//  2. if class(a), class(b), class(c) are pairwise different and class(b)
//     can be coalesced with class(c) under the Value rule, coalescing them
//     makes the copy redundant.
//
// Share updates res in place and returns the number of copies it removed.
func Share(m *Machinery, affs []sreedhar.Affinity, res *Result) int {
	// Index variables by SSA value so candidates are found in O(|class|).
	// The index is CSR-shaped — counting pass, prefix sums, fill pass into
	// one flat array — with every buffer drawn from the scratch, so the
	// default Sharing strategy builds it without per-value allocations.
	sc := m.scratch()
	n := len(m.Chk.F.Vars)
	count := i32buf(sc.shCount, n)
	start := i32buf(sc.shStart, n+1)
	sc.shCount, sc.shStart = count, start
	defined := 0
	for v := 0; v < n; v++ {
		if m.Chk.DU.HasDef(ir.VarID(v)) {
			count[m.Chk.Value(ir.VarID(v))]++
			defined++
		}
	}
	for v := 0; v < n; v++ {
		start[v+1] = start[v] + count[v]
		count[v] = start[v] // reuse count as the fill cursor
	}
	if cap(sc.shFlat) < defined {
		sc.shFlat = make([]ir.VarID, defined)
	}
	flat := sc.shFlat[:defined]
	for v := 0; v < n; v++ {
		if m.Chk.DU.HasDef(ir.VarID(v)) {
			val := m.Chk.Value(ir.VarID(v))
			flat[count[val]] = ir.VarID(v)
			count[val]++
		}
	}
	membersOf := func(val ir.VarID) []ir.VarID { return flat[start[val]:start[val+1]] }

	// Heaviest copies first: sharing opportunities consumed by cheap copies
	// should not block expensive ones.
	order := sc.shOrder[:0]
	for i, s := range res.Statuses {
		if s == Remaining {
			order = append(order, i)
		}
	}
	sc.shOrder = order
	slices.SortStableFunc(order, func(x, y int) int {
		return cmp.Compare(affs[y].Weight, affs[x].Weight)
	})

	removed := 0
	for _, i := range order {
		a := affs[i]
		src, dst := a.Src, a.Dst
		for _, c := range membersOf(m.Chk.Value(src)) {
			if c == src || c == dst {
				continue
			}
			if !m.Chk.LiveAfter(c, a.Block, a.Slot) {
				continue
			}
			x, y, z := m.Classes.Find(src), m.Classes.Find(dst), m.Classes.Find(c)
			if z == y && y != x {
				res.Statuses[i] = SharedRemoved
				removed++
				break
			}
			if x != y && y != z && x != z &&
				!ClassesInterfere(m, Value, dst, c, ir.NoVar, ir.NoVar) {
				merge(m, Value, dst, c)
				res.Statuses[i] = SharedRemoved
				removed++
				break
			}
		}
	}
	res.tally(affs)
	return removed
}
