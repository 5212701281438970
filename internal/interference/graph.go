package interference

import (
	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// GraphMode selects the relation stored in a Graph.
type GraphMode int

const (
	// ModeIntersect stores pure live-range intersection.
	ModeIntersect GraphMode = iota
	// ModeChaitin stores intersection minus Chaitin's copy exemption at the
	// definition point.
	ModeChaitin
	// ModeValue stores the paper's value-based interference: intersection
	// between variables with different SSA values.
	ModeValue
)

// Graph is an interference graph stored as a half-size bit matrix, the
// representation the paper's baseline (Sreedhar III) and the non-InterCheck
// variants use. Construction walks every block backwards once with a live
// set, so it costs O(instructions × live variables) and needs liveness
// sets, both of which the paper's memory/speed variants try to avoid.
type Graph struct {
	m    *bitset.Matrix
	mode GraphMode
}

// BuildGraph constructs the interference graph of f.
// vals may be nil unless mode is ModeValue.
func BuildGraph(f *ir.Func, live *liveness.Info, mode GraphMode, vals []ir.VarID) *Graph {
	g := &Graph{m: bitset.NewMatrix(len(f.Vars)), mode: mode}
	lv := bitset.New(len(f.Vars))
	for _, b := range f.Blocks {
		lv.Clear()
		live.Out(b.ID).ForEach(func(v int) { lv.Add(v) })
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			g.defs(in, lv, vals)
			for _, d := range in.Defs {
				lv.Remove(int(d))
			}
			for _, u := range in.Uses {
				lv.Add(int(u))
			}
		}
		// φ definitions are all written in parallel at block entry; each
		// surviving φ result interferes with everything live across the
		// entry, other surviving φ results of the block included (they are
		// in lv when used later).
		for _, phi := range b.Phis {
			if lv.Has(int(phi.Defs[0])) {
				g.def1(phi.Defs[0], phi, lv, vals)
			}
		}
	}
	return g
}

// defs records the interferences created by one instruction's definitions
// against the variables live after it (already in lv minus nothing) — lv
// holds the live-after set when called.
func (g *Graph) defs(in *ir.Instr, liveAfter *bitset.Set, vals []ir.VarID) {
	// A definition that is dead at its own definition point has an empty
	// live range and intersects nothing, matching Checker.Intersect.
	// Destinations of one parallel copy are written simultaneously, so
	// surviving ones are already in liveAfter and get paired by def1.
	for _, d := range in.Defs {
		if liveAfter.Has(int(d)) {
			g.def1(d, in, liveAfter, vals)
		}
	}
}

func (g *Graph) def1(d ir.VarID, in *ir.Instr, liveAfter *bitset.Set, vals []ir.VarID) {
	liveAfter.ForEach(func(l int) {
		if ir.VarID(l) == d {
			return
		}
		g.pair(d, ir.VarID(l), in, vals)
	})
}

// pair records interference between d (being defined by in, possibly nil)
// and live variable l, applying the mode's exemptions.
func (g *Graph) pair(d, l ir.VarID, in *ir.Instr, vals []ir.VarID) {
	switch g.mode {
	case ModeChaitin:
		if in != nil && (in.IsCopyOf(d, l) || in.IsCopyOf(l, d)) {
			return
		}
	case ModeValue:
		if vals != nil && vals[d] == vals[l] {
			return
		}
	}
	g.m.Set(int(d), int(l))
}

// Has reports whether a and b are recorded as interfering.
func (g *Graph) Has(a, b ir.VarID) bool { return g.m.Has(int(a), int(b)) }

// AllocatedBytes returns the cumulative allocation including growth.
func (g *Graph) AllocatedBytes() int { return g.m.AllocatedBytes() }

// GrowTo extends the variable universe (Method III introduces variables on
// the fly; the matrix grows as the paper describes in Section IV-D).
func (g *Graph) GrowTo(n int) { g.m.GrowTo(n) }

// AddEdge records an interference discovered after construction (used by
// virtualization when materializing copies).
func (g *Graph) AddEdge(a, b ir.VarID) { g.m.Set(int(a), int(b)) }
