package ssa

import (
	"repro/internal/dom"
	"repro/internal/ir"
)

// Values computes the paper's "SSA value" V(x) of every variable
// (Section III-A): walking the dominator tree in preorder, a copy b = a
// (plain or a parallel-copy component) gives V(b) = V(a); any other
// definition, φ-functions included, gives V(b) = b. Two variables with the
// same value never interfere, no matter how their live ranges intersect.
//
// The value of a class is the variable whose definition dominates the
// definitions of all other members, so V is idempotent: V(V(x)) = V(x).
// Variables without a definition get themselves as value.
func Values(f *ir.Func, dt *dom.Tree) []ir.VarID { return ValuesIn(f, dt, nil) }

// ValuesIn is Values with the value array in sc's memory; nil draws a
// fresh array. The result aliases sc and stays valid until sc's next
// ValuesIn.
func ValuesIn(f *ir.Func, dt *dom.Tree, sc *Scratch) []ir.VarID {
	if sc == nil {
		sc = &Scratch{}
	}
	vals := ir.Resize(sc.vals, len(f.Vars))
	sc.vals = vals
	for i := range vals {
		vals[i] = ir.VarID(i)
	}
	// Preorder walk of the dominator tree: children are pushed last first,
	// so they pop in the order Children lists them.
	stack := append(sc.stack[:0], f.Entry().ID)
	for len(stack) > 0 {
		b := f.Blocks[stack[len(stack)-1]]
		stack = stack[:len(stack)-1]
		for _, in := range b.Phis {
			vals[in.Defs[0]] = in.Defs[0]
		}
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpCopy:
				vals[in.Defs[0]] = vals[in.Uses[0]]
			case ir.OpParCopy:
				for i, d := range in.Defs {
					vals[d] = vals[in.Uses[i]]
				}
			default:
				for _, d := range in.Defs {
					vals[d] = d
				}
			}
		}
		kids := dt.Children(b.ID)
		for i := len(kids) - 1; i >= 0; i-- {
			stack = append(stack, kids[i])
		}
	}
	sc.stack = stack
	return vals
}
