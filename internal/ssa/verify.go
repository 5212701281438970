package ssa

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/ir"
)

// defPoint is where a variable is defined: its block (-1 while none was
// seen) and its slot in the def-use numbering (ir.SlotOfInstr).
type defPoint struct{ block, slot int32 }

// Verify checks strict SSA form: on top of the structural checks of
// ir.Verify, every variable has at most one definition and every use is
// dominated by its definition (φ uses by dominance of the corresponding
// predecessor's exit).
//
// It works from per-variable definition points alone. A variable defined
// twice is reported at the first repeated definition in block order;
// otherwise the failing use with the smallest (variable, block) is, which
// is the use a scan of every variable's (block, slot)-sorted use list
// would hit first.
func Verify(f *ir.Func, dt *dom.Tree) error { return VerifyIn(f, dt, nil) }

// VerifyIn is Verify with its definition table in sc's memory; nil draws a
// fresh table.
func VerifyIn(f *ir.Func, dt *dom.Tree, sc *Scratch) error {
	if err := ir.Verify(f); err != nil {
		return err
	}
	if sc == nil {
		sc = &Scratch{}
	}
	defs := resize(sc.defs, len(f.Vars))
	sc.defs = defs
	for i := range defs {
		defs[i] = defPoint{block: -1}
	}
	def := func(v ir.VarID, b int, slot int32) error {
		if defs[v].block >= 0 {
			return fmt.Errorf("ir: variable %s defined twice (not SSA)", f.VarName(v))
		}
		defs[v] = defPoint{int32(b), slot}
		return nil
	}
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			if err := def(in.Defs[0], b.ID, 0); err != nil {
				return err
			}
		}
		for i, in := range b.Instrs {
			for _, d := range in.Defs {
				if err := def(d, b.ID, ir.SlotOfInstr(i)); err != nil {
					return err
				}
			}
		}
	}

	// A use fails when its variable has no definition, sits before the
	// definition in the defining block, or lies in a block the definition
	// does not dominate. A same-slot use is the defining instruction reading
	// its own target, which is fine because all reads happen before writes.
	badV, badB := ir.NoVar, int32(-1)
	use := func(v ir.VarID, b int32, slot int32) {
		if badV != ir.NoVar && (v > badV || v == badV && b >= badB) {
			return
		}
		d := defs[v]
		if d.block < 0 || (b == d.block && slot < d.slot) || (b != d.block && !dt.Dominates(int(d.block), int(b))) {
			badV, badB = v, b
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Phis {
			for i, u := range in.Uses {
				use(u, int32(b.Preds[i].ID), ir.PhiUseSlot)
			}
		}
		for i, in := range b.Instrs {
			for _, u := range in.Uses {
				use(u, int32(b.ID), ir.SlotOfInstr(i))
			}
		}
	}
	if badV == ir.NoVar {
		return nil
	}
	d := defs[badV]
	switch {
	case d.block < 0:
		return fmt.Errorf("variable %s used but never defined", f.VarName(badV))
	case d.block == badB:
		return fmt.Errorf("use of %s in %s precedes its definition", f.VarName(badV), f.Blocks[badB].Name)
	default:
		return fmt.Errorf("use of %s in %s not dominated by definition in %s",
			f.VarName(badV), f.Blocks[badB].Name, f.Blocks[d.block].Name)
	}
}
