package ssa

import "repro/internal/ir"

// Scratch is reusable memory for the per-variable tables of VerifyIn and
// Values: the definition table, the value array and the dominator-tree
// walk's stack. A batch worker keeps one and runs every function through
// it, so neither verification nor value numbering allocates once the
// arrays have grown to the worker's largest function. It serves one call
// at a time; the zero value is ready to use.
type Scratch struct {
	defs  []defPoint
	vals  []ir.VarID
	stack []int
}
