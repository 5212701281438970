package coalesce

import "repro/internal/ir"

// Scratch holds the coalescing engine's reusable per-run working state:
// the precomputed sort keys and order of the affinity loop, the
// virtualizer's per-φ item and member buffers, and the copy-sharing
// post-pass's value index. A Scratch may be reused across functions of any
// size but not concurrently; a nil Machinery.Scratch makes every phase
// allocate fresh buffers (the pre-pooling behavior, which the
// ReferenceAlloc differential tests and BenchmarkTranslate's Reference
// rows run).
type Scratch struct {
	// sortOrder buffers.
	keys  []sortKey
	order []int

	// Virtualizer per-φ buffers.
	items   []vitem
	members []vmember

	// Share's value→members index (CSR layout) and processing order.
	shCount []int32
	shStart []int32
	shFlat  []ir.VarID
	shOrder []int
}

// NewScratch returns an empty scratch for explicit reuse across runs.
func NewScratch() *Scratch { return &Scratch{} }

// i32buf returns s resized to n and zeroed, reusing its capacity.
func i32buf(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
