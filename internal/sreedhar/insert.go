// Package sreedhar implements the two copy-placement strategies the paper
// builds on: Method I of Sreedhar et al. — insert all φ-related copies up
// front, turning the program into CSSA (Lemma 1) — and the virtualization
// of Method III, which emulates those copies and materializes only the ones
// that fail to coalesce (paper, Section IV-C).
//
// Both strategies share the copy placement discipline: one parallel copy at
// the end of every predecessor of a φ-block (before the terminator, so
// terminator uses read after the copies) and one parallel copy at the
// beginning of every φ-block (right after the φ-functions).
package sreedhar

import (
	"fmt"

	"repro/internal/ir"
)

// Affinity is a copy whose source and destination the coalescer would like
// to merge. Weight is the execution frequency of the enclosing block. Phi
// groups the n+1 copies of one φ-function (index into the insertion order);
// -1 marks copies that pre-existed in the program (register renaming
// constraints, leftover optimization copies).
type Affinity struct {
	Dst, Src ir.VarID
	Weight   float64
	Block    int   // block holding the copy
	Slot     int32 // slot of the copy instruction within the block
	Phi      int
	Instr    *ir.Instr // the OpCopy or OpParCopy carrying the copy
}

// Insertion is the result of Method I copy insertion. An Insertion may be
// reused across functions — Reset rewinds it while keeping every backing
// array — which is how the translator's pooled scratch keeps batch copy
// insertion allocation-free in steady state.
type Insertion struct {
	// PhiNodes lists, per φ-function, the fresh variables a'0..a'n that
	// constitute the φ-node and must be coalesced together (Lemma 1
	// guarantees they do not interfere).
	PhiNodes [][]ir.VarID
	// Affinities holds the φ-related copies, in φ order, plus nothing else;
	// use CollectRealCopiesInto for the pre-existing ones.
	Affinities []Affinity
	// BeginCopies and EndCopies index the parallel copy instructions
	// created per block (nil where none was needed).
	BeginCopies []*ir.Instr
	EndCopies   []*ir.Instr

	// nodeArena backs the PhiNodes entries: each node is an exact-capacity
	// subslice, so one growing array serves all φ-node lists of a run.
	nodeArena []ir.VarID
	// need is PrepareParallelCopies' per-block pair-count scratch.
	need []int32
}

// Reset prepares the insertion for a function of nblocks blocks, reusing
// all backing arrays. Call it before InsertCopiesInto or
// PrepareParallelCopies when recycling an Insertion.
func (ins *Insertion) Reset(nblocks int) {
	ins.BeginCopies = ir.Resize(ins.BeginCopies, nblocks)
	ins.EndCopies = ir.Resize(ins.EndCopies, nblocks)
	clear(ins.BeginCopies)
	clear(ins.EndCopies)
	ins.PhiNodes = ins.PhiNodes[:0]
	ins.Affinities = ins.Affinities[:0]
	ins.nodeArena = ins.nodeArena[:0]
}

// InsertCopies applies Method I to f, which must be in SSA form: for every
// φ-function a0 = φ(a1..an) it creates fresh variables a'0..a'n, adds
// a'i ← ai to the end-parallel-copy of predecessor i, adds a0 ← a'0 to the
// begin-parallel-copy of the φ-block, and rewrites the φ-function to
// a'0 = φ(a'1..a'n). After this, the function is in CSSA form.
//
// A φ argument defined by the predecessor's own terminator (Br_dec) cannot
// be copied at the end of that predecessor — InsertCopies reports an error
// naming the offending edge; the caller must split it first (paper,
// Figure 2).
func InsertCopies(f *ir.Func) (*Insertion, error) {
	ins := &Insertion{}
	ins.Reset(len(f.Blocks))
	if err := InsertCopiesInto(f, ins); err != nil {
		return nil, err
	}
	return ins, nil
}

// InsertCopiesInto is InsertCopies into a caller-provided (typically
// recycled) Insertion; ins must have been Reset for f's block count. The
// primed variables are derived variables (ir.Func.NewDerivedVar) and the
// φ-node lists live in the insertion's arena, so a warm Insertion performs
// no per-φ allocation.
func InsertCopiesInto(f *ir.Func, ins *Insertion) error {
	if err := checkBranchDefs(f); err != nil {
		return err
	}
	PrepareParallelCopies(f, ins)
	phiID := 0
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			a0 := phi.Defs[0]
			nodeStart := len(ins.nodeArena)

			a0p := f.NewDerivedVar(a0)
			ins.nodeArena = append(ins.nodeArena, a0p)
			begin := ins.BeginCopies[b.ID]
			begin.Defs = append(begin.Defs, a0)
			begin.Uses = append(begin.Uses, a0p)
			ins.Affinities = append(ins.Affinities, Affinity{
				Dst: a0, Src: a0p, Weight: b.Freq, Block: b.ID,
				Slot: ir.SlotOfInstr(indexOf(b, begin)), Phi: phiID, Instr: begin,
			})
			phi.Defs[0] = a0p

			for i, ai := range phi.Uses {
				pred := b.Preds[i]
				aip := f.NewDerivedVar(ai)
				ins.nodeArena = append(ins.nodeArena, aip)
				end := ins.EndCopies[pred.ID]
				end.Defs = append(end.Defs, aip)
				end.Uses = append(end.Uses, ai)
				ins.Affinities = append(ins.Affinities, Affinity{
					Dst: aip, Src: ai, Weight: pred.Freq, Block: pred.ID,
					Slot: ir.SlotOfInstr(indexOf(pred, end)), Phi: phiID, Instr: end,
				})
				phi.Uses[i] = aip
			}
			// Exact-capacity view: even if a later node's append reallocates
			// the arena, this slice keeps the already-written backing.
			ins.PhiNodes = append(ins.PhiNodes,
				ins.nodeArena[nodeStart:len(ins.nodeArena):len(ins.nodeArena)])
			phiID++
		}
	}
	return nil
}

// PrepareParallelCopies creates the (initially empty) begin parallel copy
// of every φ-block and the end parallel copy of every predecessor of a
// φ-block, recording them in ins. Creating all carriers up front keeps slot
// numbering stable while copies are materialized one by one — the
// virtualized translator depends on this. The carriers come from f's
// instruction arena, with operand lists pre-sized to the maximum number of
// pairs Method I can put into them, so materializing copies never grows a
// carrier's backing.
func PrepareParallelCopies(f *ir.Func, ins *Insertion) {
	// Upper-bound the pair counts: every φ contributes one pair to its
	// block's begin copy and one to each predecessor's end copy.
	ins.need = ir.Resize(ins.need, len(f.Blocks))
	need := ins.need
	clear(need)
	for _, b := range f.Blocks {
		if len(b.Phis) == 0 {
			continue
		}
		for _, p := range b.Preds {
			need[p.ID] += int32(len(b.Phis))
		}
	}
	carrier := func(pairs int) *ir.Instr {
		pc := f.NewInstr(ir.OpParCopy)
		pc.Defs = f.NewOperands(pairs)[:0]
		pc.Uses = f.NewOperands(pairs)[:0]
		return pc
	}
	for _, b := range f.Blocks {
		if len(b.Phis) == 0 {
			continue
		}
		if ins.BeginCopies[b.ID] == nil {
			pc := carrier(len(b.Phis))
			ir.InsertBefore(b, 0, pc)
			ins.BeginCopies[b.ID] = pc
		}
		for _, p := range b.Preds {
			if ins.EndCopies[p.ID] == nil {
				pc := carrier(int(need[p.ID]))
				ir.InsertBefore(p, ir.CopyInsertIndex(p), pc)
				ins.EndCopies[p.ID] = pc
			}
		}
	}
}

// checkBranchDefs reports an error when a φ argument is defined by the
// corresponding predecessor's terminator, which makes copy insertion at the
// end of that predecessor impossible.
func checkBranchDefs(f *ir.Func) error {
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for i, ai := range phi.Uses {
				pred := b.Preds[i]
				t := pred.Terminator()
				if t == nil || !t.Op.DefinesAfterCopyPoint() {
					continue
				}
				for _, d := range t.Defs {
					if d == ai {
						return fmt.Errorf("sreedhar: φ argument %s is defined by the %s terminator of %s; split the edge %s→%s first",
							f.VarName(ai), t.Op, pred.Name, pred.Name, b.Name)
					}
				}
			}
		}
	}
	return nil
}

func indexOf(b *ir.Block, in *ir.Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	panic("sreedhar: instruction not found in block")
}

// CollectRealCopiesInto appends to dst (which may be a recycled buffer)
// the affinities for the plain copies already in f (register renaming
// constraints and optimization leftovers), to be coalesced alongside the
// φ-related ones (paper, Section III-B). With a non-nil ins, only the
// copies that pre-existed copy insertion count: the parallel copies ins
// itself created are skipped. They are recognized by pointer identity
// against the per-block BeginCopies/EndCopies records, so no skip set is
// built.
func CollectRealCopiesInto(f *ir.Func, ins *Insertion, dst []Affinity) []Affinity {
	return collectCopies(f, ins, dst)
}

func collectCopies(f *ir.Func, ins *Insertion, out []Affinity) []Affinity {
	for _, b := range f.Blocks {
		var begin, end *ir.Instr
		if ins != nil {
			begin, end = ins.BeginCopies[b.ID], ins.EndCopies[b.ID]
		}
		for i, in := range b.Instrs {
			if in == begin || in == end {
				continue
			}
			switch in.Op {
			case ir.OpCopy:
				out = append(out, Affinity{
					Dst: in.Defs[0], Src: in.Uses[0], Weight: b.Freq,
					Block: b.ID, Slot: ir.SlotOfInstr(i), Phi: -1, Instr: in,
				})
			case ir.OpParCopy:
				for j, d := range in.Defs {
					out = append(out, Affinity{
						Dst: d, Src: in.Uses[j], Weight: b.Freq,
						Block: b.ID, Slot: ir.SlotOfInstr(i), Phi: -1, Instr: in,
					})
				}
			}
		}
	}
	return out
}

// SplitDuplicatePredEdges splits edges so that no φ-block has the same
// predecessor twice. Copies for φ arguments are placed at the end of the
// predecessor, which cannot distinguish two parallel edges from the same
// block; Lemma 1 (disjoint predecessor blocks) needs this normalization.
// It returns the number of edges split.
func SplitDuplicatePredEdges(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		if len(b.Phis) == 0 {
			continue
		}
		// Quadratic scan instead of a per-block set: predecessor lists are
		// short, and a split replaces b.Preds[i] with the fresh block, so
		// later pairs still compare against the updated list.
		for i := 0; i < len(b.Preds); i++ {
			p := b.Preds[i]
			for j := 0; j < i; j++ {
				if b.Preds[j] == p {
					ir.SplitEdge(f, p, b)
					n++
					break
				}
			}
		}
	}
	return n
}

// SplitBranchDefEdges splits every edge whose φ argument is defined by the
// predecessor's terminator (the Br_dec situation of Figure 2), so that
// copy insertion becomes possible. It returns the number of edges split.
// The rewritten φ arguments keep their variable; only the predecessor
// changes.
func SplitBranchDefEdges(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		if len(b.Phis) == 0 {
			continue
		}
		for i := 0; i < len(b.Preds); i++ {
			pred := b.Preds[i]
			t := pred.Terminator()
			if t == nil || !t.Op.DefinesAfterCopyPoint() {
				continue
			}
			needs := false
			for _, phi := range b.Phis {
				for _, d := range t.Defs {
					if phi.Uses[i] == d {
						needs = true
					}
				}
			}
			if needs {
				ir.SplitEdge(f, pred, b)
				n++
			}
		}
	}
	return n
}
