// Package coalesce implements the paper's aggressive coalescing engine
// (Section III-B): once copy insertion has made the program conventional,
// removing copies is a standard aggressive coalescing problem over
// congruence classes, driven by affinity weights (block frequencies), with
// interference decided by one of the definitions compared in Figure 5.
package coalesce

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/congruence"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/sreedhar"
)

// Variant selects the interference definition used when deciding whether
// two congruence classes may be coalesced — the seven-way comparison of the
// paper's Figure 5 (Sreedhar III and the IS/Sharing refinements are driven
// from the pipeline; this enum covers the class-level predicate).
type Variant int

const (
	// Intersect: classes coalesce when no two members' live ranges
	// intersect.
	Intersect Variant = iota
	// SreedharI: like Intersect but the copy pair itself is exempted
	// (Sreedhar's SSA-based coalescing).
	SreedharI
	// Chaitin: one member live at a definition of the other, definitions by
	// copies between the two exempted.
	Chaitin
	// Value: the paper's value-based interference — intersection plus
	// different SSA values.
	Value
)

// String names the variant as in the paper's figures.
func (v Variant) String() string {
	switch v {
	case Intersect:
		return "Intersect"
	case SreedharI:
		return "Sreedhar I"
	case Chaitin:
		return "Chaitin"
	case Value:
		return "Value"
	}
	return "unknown"
}

// Machinery bundles how interference is actually tested: directly against
// the checker, from a prebuilt interference graph, and with the linear or
// quadratic class-level algorithm (paper, Section IV).
type Machinery struct {
	Chk     *interference.Checker
	Classes *congruence.Classes
	// Graph, when non-nil, answers variable-pair queries from the bit
	// matrix instead of recomputing intersections.
	Graph *interference.Graph
	// Linear selects the paper's linear-time class interference test. It
	// applies to the Value variant (with value chains) and to Intersect;
	// the pair-exemption variants need the quadratic form.
	Linear bool
	// Scratch supplies the reusable per-run buffers of the affinity sort,
	// the virtualizer, and the sharing post-pass. When it is nil, the first
	// run that needs buffers installs a fresh one.
	Scratch *Scratch
}

// scratch returns the machinery's Scratch, installing a fresh one if the
// caller supplied none.
func (m *Machinery) scratch() *Scratch {
	if m.Scratch == nil {
		m.Scratch = NewScratch()
	}
	return m.Scratch
}

// pairPred returns the variable-pair predicate for the variant.
func (m *Machinery) pairPred(v Variant) congruence.Pred {
	if m.Graph != nil {
		// The graph was built in the matching mode by the pipeline.
		return func(x, y ir.VarID) bool { return m.Graph.Has(x, y) }
	}
	switch v {
	case Intersect, SreedharI:
		return func(x, y ir.VarID) bool { return m.Chk.Intersect(x, y) }
	case Chaitin:
		return func(x, y ir.VarID) bool { return m.Chk.ChaitinInterferes(x, y) }
	default:
		return func(x, y ir.VarID) bool { return m.Chk.Interferes(x, y) }
	}
}

// Status records the fate of one affinity.
type Status uint8

const (
	// Remaining: the copy stays in the generated code.
	Remaining Status = iota
	// Coalesced: source and destination ended in the same congruence class.
	Coalesced
	// SharedRemoved: the copy was removed by the sharing post-pass even
	// though its endpoints are in different classes (another variable of
	// the destination class already carries the value).
	SharedRemoved
)

// Result summarizes one coalescing run.
type Result struct {
	Statuses        []Status // aligned with the input affinities
	Removed         int
	RemainingCount  int
	RemovedWeight   float64
	RemainingWeight float64
}

// ClassesInterfere applies the variant's class-level test. exemptA/exemptB
// carry the copy pair for SreedharI's exemption (ir.NoVar otherwise).
func ClassesInterfere(m *Machinery, v Variant, a, b, exemptA, exemptB ir.VarID) bool {
	if m.Classes.SameClass(a, b) {
		return false
	}
	// Classes pinned to different architectural registers always interfere
	// (paper, Section III-D).
	ra, rb := m.Classes.Reg(a), m.Classes.Reg(b)
	if ra != "" && rb != "" && ra != rb {
		return true
	}
	if m.Linear && m.Graph == nil {
		switch v {
		case Value:
			return m.Classes.InterferesLinear(a, b)
		case Intersect:
			return m.Classes.InterferesLinearPure(a, b)
		}
	}
	if v != SreedharI {
		exemptA, exemptB = ir.NoVar, ir.NoVar
	}
	return m.Classes.InterferesQuadratic(a, b, m.pairPred(v), exemptA, exemptB)
}

// merge coalesces the classes of a and b with the machinery-appropriate
// merge (chain-consuming after a linear check, plain otherwise).
func merge(m *Machinery, v Variant, a, b ir.VarID) {
	if m.Linear && v == Value && m.Graph == nil {
		m.Classes.Merge(a, b) // consumes the equal-ancestor scratch
		return
	}
	m.Classes.MergeSimple(a, b)
}

// Run processes the affinities with the given variant. Order: strictly
// decreasing weight, ties broken by input position (deterministic). When
// groupPhis is true the φ-related affinities are processed φ-function by
// φ-function first (each φ's copies by decreasing weight — the greedy
// independent-set search of Value+IS and Method III), then the remaining
// copies globally by weight.
func Run(m *Machinery, affs []sreedhar.Affinity, v Variant, groupPhis bool) *Result {
	res := &Result{Statuses: make([]Status, len(affs))}
	order := sortOrder(m.scratch(), affs, groupPhis)
	for _, i := range order {
		a := affs[i]
		if m.Classes.SameClass(a.Dst, a.Src) {
			res.Statuses[i] = Coalesced
			continue
		}
		if ClassesInterfere(m, v, a.Dst, a.Src, a.Dst, a.Src) {
			res.Statuses[i] = Remaining
			continue
		}
		merge(m, v, a.Dst, a.Src)
		res.Statuses[i] = Coalesced
	}
	res.tally(affs)
	return res
}

func (r *Result) tally(affs []sreedhar.Affinity) {
	r.Removed, r.RemainingCount = 0, 0
	r.RemovedWeight, r.RemainingWeight = 0, 0
	for i, s := range r.Statuses {
		if s == Remaining {
			r.RemainingCount++
			r.RemainingWeight += affs[i].Weight
		} else {
			r.Removed++
			r.RemovedWeight += affs[i].Weight
		}
	}
}

// sortKey is one precomputed comparison key of sortOrder.
type sortKey struct {
	group  int32 // φ index, or MaxInt32 for the trailing non-φ section
	weight float64
	idx    int32
}

// sortOrder returns the processing order of the affinities: strictly
// decreasing weight within each group, ties broken by input position. The
// comparison keys (φ group, weight, index) are precomputed into one flat
// slice, so the sort compares adjacent struct fields instead of chasing
// affs[order[i]] indirections through a closure per comparison — and with
// the distinct index as the final key the order is total, so the plain
// (unstable) sort is deterministic without SliceStable's extra passes.
// The key and order buffers come from sc; the returned slice is owned by
// the scratch and valid until its next run.
func sortOrder(sc *Scratch, affs []sreedhar.Affinity, groupPhis bool) []int {
	keys := growKeys(sc.keys, len(affs))
	order := growInts(sc.order, len(affs))
	sc.keys, sc.order = keys, order
	for i, a := range affs {
		g := int32(math.MaxInt32)
		if groupPhis && a.Phi >= 0 {
			g = int32(a.Phi) // φ-related first, φ-function by φ-function
		}
		keys[i] = sortKey{group: g, weight: a.Weight, idx: int32(i)}
	}
	slices.SortFunc(keys, func(x, y sortKey) int {
		if x.group != y.group {
			return cmp.Compare(x.group, y.group)
		}
		if x.weight != y.weight {
			return cmp.Compare(y.weight, x.weight)
		}
		return cmp.Compare(x.idx, y.idx)
	})
	for i := range keys {
		order[i] = int(keys[i].idx)
	}
	return order
}

// growKeys returns s resized to n, reusing its capacity.
func growKeys(s []sortKey, n int) []sortKey {
	if cap(s) < n {
		return make([]sortKey, n)
	}
	return s[:n]
}

// growInts returns s resized to n, reusing its capacity.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
