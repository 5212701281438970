// Package liveness computes classic per-block live-in/live-out sets with
// backward dataflow analysis, using the SSA conventions the paper relies
// on: a φ-function's arguments are live-out of the corresponding
// predecessors (they are read "on the edge"), and a φ-function's result is
// not live-in of its block (it is defined at block entry).
//
// The engine is a reverse-postorder worklist fixpoint over word-parallel
// set transfers: per-block upward-exposed/def/φ-edge sets are built once,
// then each dirty block recomputes out = φ-edge uses ∪ (∪ succ in) and
// in = upExposed ∪ (out \ defs) with whole-word bitset operations, pushing
// predecessors only when its live-in actually grew. The worklist is seeded
// in reverse postorder so loop bodies stabilize before their headers are
// revisited. All per-run working state lives in a Scratch that is pooled
// across runs, so batch translation does not re-allocate it per function.
//
// The sets can be stored in two backends: dense bit sets (fast, used by
// default) or sorted "ordered sets" — the representation of the paper's
// measured configurations (Figure 7 "Measured"; Sreedhar III and the
// default Us I/III all keep liveness as ordered sets). The choice affects
// speed and measured footprint, never results.
package liveness

import (
	"fmt"
	"sync"

	"repro/internal/bitset"
	"repro/internal/ir"
)

// VarSet is one liveness set; both backends implement it.
type VarSet interface {
	Has(v int) bool
	Add(v int) bool // reports whether the set changed
	Remove(v int) bool
	ForEach(f func(int))
	Count() int
	Bytes() int // measured footprint of the payload
}

type bitSet struct{ *bitset.Set }

func (s bitSet) Add(v int) bool {
	if s.Set.Has(v) {
		return false
	}
	s.Set.Add(v)
	return true
}
func (s bitSet) Remove(v int) bool {
	if !s.Set.Has(v) {
		return false
	}
	s.Set.Remove(v)
	return true
}

type ordSet struct{ *bitset.Ordered }

func (s ordSet) Add(v int) bool    { return s.Ordered.Add(v) }
func (s ordSet) Remove(v int) bool { return s.Ordered.Remove(v) }
func (s ordSet) Count() int        { return s.Ordered.Len() }
func (s ordSet) Bytes() int        { return s.Ordered.CapBytes() }

// Backend selects the set representation.
type Backend int

const (
	// Bitsets stores each set as a dense bit vector.
	Bitsets Backend = iota
	// OrderedSets stores each set as a sorted slice of variable IDs, the
	// paper's measured representation.
	OrderedSets
)

// Info holds the result of the dataflow analysis.
type Info struct {
	f       *ir.Func
	liveIn  []VarSet
	liveOut []VarSet
	// Iterations is the maximum number of times any single block was
	// processed (for the reference engine: full round-robin passes). A
	// well-seeded worklist keeps this near the loop-nesting depth.
	Iterations int
	// Pops is the total number of worklist pops the fixpoint took; the
	// reference engine reports passes × blocks. Diagnostics — the property
	// tests assert it stays bounded.
	Pops int
}

// Scratch holds the reusable working state of one liveness run: the
// per-block upward-exposed/def/φ-edge sets, the worklist, the seed order,
// and the visit counters. A Scratch may be reused across functions of any
// size (buffers grow and are cleared per run) but not concurrently.
type Scratch struct {
	sets    []*bitset.Set // 3 per block: upExposed, defs, φ-edge uses
	order   []int32       // reverse-postorder seed (worklist pop order)
	work    []int32       // worklist stack
	onList  []bool
	visits  []int32
	dfsNext []int32 // per-block DFS successor cursor
}

// NewScratch returns an empty scratch for explicit reuse across runs.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// prepare sizes the scratch for n blocks of nv variables and returns the
// per-block upExposed, defs, and φ-edge-use vectors, all cleared.
func (sc *Scratch) prepare(n, nv int) (ue, df, po []*bitset.Set) {
	for len(sc.sets) < 3*n {
		sc.sets = append(sc.sets, bitset.New(nv))
	}
	for _, s := range sc.sets[:3*n] {
		s.Reset(nv) // exact capacity: it propagates into the result sets
	}
	if cap(sc.order) < n {
		sc.order = make([]int32, 0, n)
		sc.work = make([]int32, 0, n)
		sc.onList = make([]bool, n)
		sc.visits = make([]int32, n)
		sc.dfsNext = make([]int32, n)
	}
	sc.order = sc.order[:0]
	sc.work = sc.work[:0]
	sc.onList = sc.onList[:n]
	sc.visits = sc.visits[:n]
	sc.dfsNext = sc.dfsNext[:n]
	for i := 0; i < n; i++ {
		sc.onList[i] = false
		sc.visits[i] = 0
		sc.dfsNext[i] = 0
	}
	return sc.sets[:n], sc.sets[n : 2*n], sc.sets[2*n : 3*n]
}

// Compute runs the analysis on f with bit-set storage.
func Compute(f *ir.Func) *Info { return ComputeWith(f, Bitsets) }

// ComputeWith runs the worklist analysis with the chosen backend, drawing
// its scratch from a package pool. The fixpoint operates directly on the
// stored representation, so the ordered backend pays its ordered-merge cost
// during construction too — as in the paper, where liveness set
// construction is part of the measured translation time.
func ComputeWith(f *ir.Func, be Backend) *Info {
	sc := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(sc)
	return ComputeInto(f, be, sc)
}

// ComputeInto is ComputeWith with an explicit, caller-owned Scratch — the
// analysis cache hands each function's recomputations the same scratch.
func ComputeInto(f *ir.Func, be Backend, sc *Scratch) *Info {
	n := len(f.Blocks)
	nv := len(f.Vars)
	info := &Info{
		f:       f,
		liveIn:  make([]VarSet, n),
		liveOut: make([]VarSet, n),
	}
	if n == 0 {
		return info
	}
	ue, df, po := sc.prepare(n, nv)
	buildTransfer(f, ue, df, po)
	seedOrder(f, sc)

	if be == OrderedSets {
		computeOrdered(f, info, sc, ue, df, po)
	} else {
		computeBitsets(f, info, sc, ue, df, po)
	}
	return info
}

// buildTransfer fills, for each block position i (block IDs are positional,
// see ir.Verify), the upward-exposed uses ue[i], the definitions df[i]
// (φ results included: they are written at block entry, so they never enter
// live-in), and the φ-edge uses po[i]: the variables read "on the edge"
// out of block i by φ-functions of its successors.
func buildTransfer(f *ir.Func, ue, df, po []*bitset.Set) {
	for i, b := range f.Blocks {
		if b.ID != i {
			panic(fmt.Sprintf("liveness: block %q has ID %d at index %d; block IDs must be positional (ir.Verify)", b.Name, b.ID, i))
		}
		uei, dfi := ue[i], df[i]
		for _, in := range b.Phis {
			dfi.Add(int(in.Defs[0])) // φ uses are attributed to predecessors
			for pi, u := range in.Uses {
				po[b.Preds[pi].ID].Add(int(u))
			}
		}
		for _, in := range b.Instrs {
			// For parallel copies this is still correct: all uses are read
			// before any def is written, and the Uses/Defs order here keeps
			// that order.
			for _, u := range in.Uses {
				if !dfi.Has(int(u)) {
					uei.Add(int(u))
				}
			}
			for _, d := range in.Defs {
				dfi.Add(int(d))
			}
		}
	}
}

// seedOrder fills sc.order with the blocks in reverse postorder of the CFG
// (unreachable blocks appended first, so the stack pops them last). Pushing
// the order onto a LIFO worklist makes the first pops process the function
// backward — exits before entries — which is the fast direction for a
// backward dataflow problem.
func seedOrder(f *ir.Func, sc *Scratch) {
	n := len(f.Blocks)
	post := sc.work[:0] // borrow the (empty) worklist as the postorder buffer
	stack := append(sc.order[:0], 0)
	visited := sc.onList
	visited[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		succs := f.Blocks[b].Succs
		if int(sc.dfsNext[b]) < len(succs) {
			s := succs[sc.dfsNext[b]]
			sc.dfsNext[b]++
			if !visited[s.ID] {
				visited[s.ID] = true
				stack = append(stack, int32(s.ID))
			}
			continue
		}
		post = append(post, b)
		stack = stack[:len(stack)-1]
	}
	order := stack[:0] // sc.order, now empty again
	for i := n - 1; i >= 0; i-- {
		if !visited[i] {
			order = append(order, int32(i)) // unreachable: popped last
		}
	}
	for i := len(post) - 1; i >= 0; i-- {
		order = append(order, post[i])
	}
	sc.order = order
	sc.work = post[:0]
	for i := 0; i < n; i++ {
		visited[i] = false
		sc.dfsNext[i] = 0
	}
}

// computeBitsets runs the worklist fixpoint with dense bit-set storage:
// every transfer is a whole-word union, no per-bit callbacks. The result
// sets are carved out of one batch backing (two allocations for all 2n
// sets) and the interface wrappers live in one slice, so constructing the
// result costs a constant number of allocations.
func computeBitsets(f *ir.Func, info *Info, sc *Scratch, ue, df, po []*bitset.Set) {
	n := len(f.Blocks)
	nv := len(f.Vars)
	sets := bitset.NewBatch(nv, 2*n) // [0,n) live-in, [n,2n) live-out
	wrap := make([]bitSet, 2*n)
	for i := 0; i < n; i++ {
		in, out := &sets[i], &sets[n+i]
		in.UnionWith(ue[i])
		out.UnionWith(po[i])
		wrap[i] = bitSet{in}
		wrap[n+i] = bitSet{out}
		info.liveIn[i] = &wrap[i]
		info.liveOut[i] = &wrap[n+i]
	}
	sc.runWorklist(f, info, func(b int) bool {
		out := &sets[n+b]
		for _, s := range f.Blocks[b].Succs {
			out.UnionWith(&sets[s.ID])
		}
		return sets[b].UnionWithAndNot(out, df[b])
	})
}

// computeOrdered runs the same worklist with sorted-slice storage. The
// static ue/φ-edge contributions are snapshotted once as sorted slices so
// the per-visit transfers are linear merges. Like the bit-set backend, the
// Ordered headers and interface wrappers come from two batch slices.
func computeOrdered(f *ir.Func, info *Info, sc *Scratch, ue, df, po []*bitset.Set) {
	n := len(f.Blocks)
	sets := make([]bitset.Ordered, 2*n) // [0,n) live-in, [n,2n) live-out
	wrap := make([]ordSet, 2*n)
	var buf []int32 // seeding buffer, reused across blocks
	for i := 0; i < n; i++ {
		in, out := &sets[i], &sets[n+i]
		buf = appendElems(buf[:0], ue[i])
		in.UnionSorted(buf)
		buf = appendElems(buf[:0], po[i])
		out.UnionSorted(buf)
		wrap[i] = ordSet{in}
		wrap[n+i] = ordSet{out}
		info.liveIn[i] = &wrap[i]
		info.liveOut[i] = &wrap[n+i]
	}
	sc.runWorklist(f, info, func(b int) bool {
		out := &sets[n+b]
		for _, s := range f.Blocks[b].Succs {
			out.UnionWith(&sets[s.ID])
		}
		return sets[b].UnionWithAndNot(out, df[b])
	})
}

// appendElems appends the elements of s to dst in increasing order (ForEach
// enumerates sorted).
func appendElems(dst []int32, s *bitset.Set) []int32 {
	s.ForEach(func(v int) { dst = append(dst, int32(v)) })
	return dst
}

// runWorklist drives the dirty-block fixpoint: visit recomputes block b's
// out/in from current successor live-ins and reports whether live-in grew;
// predecessors of grown blocks are re-queued. Seeding follows sc.order
// (reverse postorder) pushed onto a LIFO stack, so pops start at the exits.
func (sc *Scratch) runWorklist(f *ir.Func, info *Info, visit func(b int) bool) {
	work := sc.work[:0]
	for _, b := range sc.order {
		work = append(work, b)
		sc.onList[b] = true
	}
	for len(work) > 0 {
		b := int(work[len(work)-1])
		work = work[:len(work)-1]
		sc.onList[b] = false
		info.Pops++
		sc.visits[b]++
		if v := int(sc.visits[b]); v > info.Iterations {
			info.Iterations = v
		}
		if visit(b) {
			for _, p := range f.Blocks[b].Preds {
				if !sc.onList[p.ID] {
					sc.onList[p.ID] = true
					work = append(work, int32(p.ID))
				}
			}
		}
	}
	sc.work = work[:0]
}

// ComputeReference runs the pre-worklist engine: a naive round-robin
// fixpoint in reverse block order with element-wise transfers. It is kept
// as the differential-testing oracle for the worklist engine (and as the
// Reference row of BenchmarkLiveness); results are identical, only speed
// differs.
func ComputeReference(f *ir.Func, be Backend) *Info {
	n := len(f.Blocks)
	nv := len(f.Vars)
	mk := func() VarSet {
		if be == OrderedSets {
			return ordSet{bitset.NewOrdered(0)}
		}
		return bitSet{bitset.New(nv)}
	}
	info := &Info{
		f:       f,
		liveIn:  make([]VarSet, n),
		liveOut: make([]VarSet, n),
	}
	upExposed := make([]*bitset.Set, n)
	defs := make([]*bitset.Set, n)
	phiOut := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		info.liveIn[i] = mk()
		info.liveOut[i] = mk()
		upExposed[i] = bitset.New(nv)
		defs[i] = bitset.New(nv)
		phiOut[i] = bitset.New(nv)
	}
	buildTransfer(f, upExposed, defs, phiOut)

	// Backward iteration to fixpoint; sets only grow, so "no Add changed
	// anything" is convergence.
	for changed := true; changed; {
		changed = false
		info.Iterations++
		info.Pops += n
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := info.liveOut[i]
			phiOut[i].ForEach(func(v int) {
				if out.Add(v) {
					changed = true
				}
			})
			for _, s := range b.Succs {
				info.liveIn[s.ID].ForEach(func(v int) {
					if out.Add(v) {
						changed = true
					}
				})
			}
			in := info.liveIn[i]
			out.ForEach(func(v int) {
				if !defs[i].Has(v) {
					if in.Add(v) {
						changed = true
					}
				}
			})
			upExposed[i].ForEach(func(v int) {
				if in.Add(v) {
					changed = true
				}
			})
		}
	}
	return info
}

// Func returns the analyzed function.
func (l *Info) Func() *ir.Func { return l.f }

// In returns the set of variables live at entry of block b
// (φ results of b excluded, by convention).
func (l *Info) In(b int) VarSet { return l.liveIn[b] }

// Out returns the set of variables live at exit of block b, including
// variables flowing into φ-functions of successors along b's edges.
func (l *Info) Out(b int) VarSet { return l.liveOut[b] }

// LiveInBlock reports whether v is live at entry of block b. It adapts the
// sets to the query interface shared with package livecheck.
func (l *Info) LiveInBlock(v ir.VarID, b int) bool { return l.liveIn[b].Has(int(v)) }

// LiveOutBlock reports whether v is live at exit of block b.
func (l *Info) LiveOutBlock(v ir.VarID, b int) bool { return l.liveOut[b].Has(int(v)) }

// Bytes returns the measured footprint of the stored sets.
func (l *Info) Bytes() int {
	total := 0
	for i := range l.liveIn {
		total += l.liveIn[i].Bytes() + l.liveOut[i].Bytes()
	}
	return total
}

// OrderedBytes returns the footprint of the live-in and live-out sets if
// stored as ordered sets: 4 bytes per element (paper, Figure 7,
// "Evaluated (Ordered sets)").
func (l *Info) OrderedBytes() int {
	total := 0
	for i := range l.liveIn {
		total += 4 * (l.liveIn[i].Count() + l.liveOut[i].Count())
	}
	return total
}

// BitsetBytes returns the paper's perfect-memory bit-set formula:
// ceil(nvars/8) * nblocks * 2.
func BitsetBytes(nvars, nblocks int) int { return (nvars + 7) / 8 * nblocks * 2 }
