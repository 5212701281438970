package coalesce

import (
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
)

// Virtualizer emulates the φ-related copies instead of inserting them
// (paper, Section IV-C; Method III of Sreedhar et al.). φ-functions are
// processed one at a time; each φ operand is *virtually* copied into the
// φ-node and the copy is materialized — appended to the pre-created
// parallel copy, with a fresh primed variable — only when the operand's
// congruence class interferes with the φ-node built so far.
//
// Because materializing a copy only ever shrinks the live range of the
// operand, earlier attachment decisions stay valid. When a materialized
// primed variable still conflicts with an already-attached operand class,
// that operand is detached and materialized as well; primed variables of
// one φ never conflict with each other (Lemma 1), so the cascade
// terminates.
//
// The per-φ working state — the weighted operand items and the attached
// member classes — lives in flat value slices drawn from the machinery's
// Scratch. Items remember the attached member by a stable per-φ id, so
// detaching a member is a scan over the item slice instead of a
// per-member allocated list.
type Virtualizer struct {
	M   *Machinery
	Ins *sreedhar.Insertion // pre-created empty parallel copies
	// Variant is the interference definition: Value for the paper's
	// "Us III", Intersect for the Sreedhar III baseline.
	Variant Variant
	// Live must be set when the machinery uses an interference graph or
	// liveness sets: materializations update LiveOut of the predecessor and
	// add graph edges for the new variable (the bookkeeping the paper
	// credits for Method III's implementation complexity).
	Live *liveness.Info
}

// VirtualResult reports the outcome of virtualization.
type VirtualResult struct {
	// Materialized lists the copies that were actually inserted; they are
	// the remaining φ-related copies of the translation.
	Materialized                   []sreedhar.Affinity
	Removed                        int // virtual copies coalesced away
	RemovedWeight, RemainingWeight float64
}

// vitem is one φ operand to place into the φ-node.
type vitem struct {
	v      ir.VarID
	pred   int32 // predecessor index; -1 for the φ result
	weight float64
	member int32 // id of the member the item attached through; -1 = none
}

// vmember is one congruence class attached to the φ-node under
// construction. The id is stable for the φ's lifetime even as members are
// removed, so items can refer to their member without per-member lists.
type vmember struct {
	rep ir.VarID
	id  int32
}

// Run virtualizes every φ-function of f. The function must already carry
// the empty parallel copies of sreedhar.PrepareParallelCopies (via an
// Insertion with no affinities).
func (vz *Virtualizer) Run(f *ir.Func) *VirtualResult {
	res := &VirtualResult{}
	phiID := 0
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			vz.phi(f, b, phi, phiID, res)
			phiID++
		}
	}
	return res
}

func (vz *Virtualizer) phi(f *ir.Func, b *ir.Block, phi *ir.Instr, phiID int, res *VirtualResult) {
	sc := vz.M.scratch()
	items, members := sc.items[:0], sc.members[:0]
	items = append(items, vitem{v: phi.Defs[0], pred: -1, weight: b.Freq, member: -1})
	for i := range phi.Uses {
		items = append(items, vitem{v: phi.Uses[i], pred: int32(i), weight: b.Preds[i].Freq, member: -1})
	}
	// Decreasing weight, result first on ties (stable order).
	for i := 1; i < len(items); i++ {
		for j := i; j > 0 && items[j].weight > items[j-1].weight; j-- {
			items[j], items[j-1] = items[j-1], items[j]
		}
	}

	nextID := int32(0)
	for idx := range items {
		if vz.attach(idx, items, &members, &nextID) {
			res.Removed++
			res.RemovedWeight += items[idx].weight
			continue
		}
		p := vz.materialize(f, b, phi, &items[idx], phiID, res)
		// The primed variable must join the φ-node; conflicts with
		// already-attached operand classes detach (and materialize) them.
		vz.attachPrimed(f, b, phi, p, phiID, items, &members, &nextID, res)
	}
	// All attached classes were pairwise checked: coalesce them into the
	// φ-node congruence class.
	for i := 1; i < len(members); i++ {
		vz.M.Classes.MergeForced(members[0].rep, members[i].rep)
	}
	sc.items, sc.members = items[:0], members[:0]
}

// attach tries to add items[idx]'s congruence class to the φ-node. It
// reports success; on failure the caller materializes a copy.
func (vz *Virtualizer) attach(idx int, items []vitem, members *[]vmember, nextID *int32) bool {
	it := &items[idx]
	cls := vz.M.Classes.Find(it.v)
	for mi := range *members {
		if vz.M.Classes.Find((*members)[mi].rep) == cls {
			it.member = (*members)[mi].id
			return true // already part of the φ-node
		}
	}
	for mi := range *members {
		if ClassesInterfere(vz.M, vz.Variant, it.v, (*members)[mi].rep, ir.NoVar, ir.NoVar) {
			return false
		}
	}
	id := *nextID
	*nextID++
	*members = append(*members, vmember{rep: cls, id: id})
	it.member = id
	return true
}

// attachPrimed inserts the freshly materialized variable p into the φ-node,
// detaching and materializing any attached operand class it conflicts with.
func (vz *Virtualizer) attachPrimed(f *ir.Func, b *ir.Block, phi *ir.Instr, p ir.VarID, phiID int,
	items []vitem, members *[]vmember, nextID *int32, res *VirtualResult) {
	for {
		conflict := -1
		for mi := range *members {
			if ClassesInterfere(vz.M, vz.Variant, p, (*members)[mi].rep, ir.NoVar, ir.NoVar) {
				conflict = mi
				break
			}
		}
		if conflict < 0 {
			break
		}
		m := (*members)[conflict]
		*members = append((*members)[:conflict], (*members)[conflict+1:]...)
		// Every operand that attached through this class loses its free
		// ride: each gets its own materialized copy (which, being primed,
		// cannot conflict with p or other primed variables).
		for idx := range items {
			if items[idx].member != m.id {
				continue
			}
			items[idx].member = -1
			res.Removed--
			res.RemovedWeight -= items[idx].weight
			q := vz.materialize(f, b, phi, &items[idx], phiID, res)
			vz.attachPrimed(f, b, phi, q, phiID, items, members, nextID, res)
		}
	}
	id := *nextID
	*nextID++
	*members = append(*members, vmember{rep: vz.M.Classes.Find(p), id: id})
}

// materialize appends the real copy for it to the pre-created parallel
// copy, creating the primed variable, rewriting the φ, and updating the
// def-use index, the value table, the liveness sets, and the interference
// graph as configured. It returns the primed variable.
func (vz *Virtualizer) materialize(f *ir.Func, b *ir.Block, phi *ir.Instr, it *vitem, phiID int, res *VirtualResult) ir.VarID {
	chk := vz.M.Chk
	du := chk.DU
	if it.pred < 0 {
		// Result a0: the φ now defines a'0 and the begin parallel copy
		// performs a0 ← a'0.
		a0 := it.v
		begin := vz.Ins.BeginCopies[b.ID]
		slot := slotOf(b, begin)
		p := f.NewDerivedVar(a0)
		chk.Vals = append(chk.Vals, chk.Vals[a0]) // a0 is a copy of p: same value class
		begin.Defs = append(begin.Defs, a0)
		begin.Uses = append(begin.Uses, p)
		phi.Defs[0] = p
		du.AddDef(p, b.ID, 0, phi)
		du.AddUse(p, b.ID, slot, begin)
		du.ReplaceDef(a0, b.ID, slot, begin)
		chk.DefMoved(p)
		chk.DefMoved(a0)
		vz.addGraphEdgesResult(b, p)
		res.Materialized = append(res.Materialized, sreedhar.Affinity{
			Dst: a0, Src: p, Weight: it.weight, Block: b.ID, Slot: slot, Phi: phiID, Instr: begin,
		})
		res.RemainingWeight += it.weight
		return p
	}
	// Argument ai of predecessor i: the end parallel copy of the
	// predecessor performs a'i ← ai and the φ reads a'i.
	ai := it.v
	pred := b.Preds[it.pred]
	end := vz.Ins.EndCopies[pred.ID]
	slot := slotOf(pred, end)
	p := f.NewDerivedVar(ai)
	chk.Vals = append(chk.Vals, chk.Vals[ai]) // the copy gives p the value of ai
	end.Defs = append(end.Defs, p)
	end.Uses = append(end.Uses, ai)
	phi.Uses[it.pred] = p
	du.AddDef(p, pred.ID, slot, end)
	du.AddUse(ai, pred.ID, slot, end)
	du.RemoveUse(ai, pred.ID, ir.PhiUseSlot, phi)
	du.AddUse(p, pred.ID, ir.PhiUseSlot, phi)
	chk.DefMoved(p)
	if vz.Live != nil {
		out := vz.Live.Out(pred.ID)
		out.Add(int(p))
		if !vz.stillLiveOut(ai, pred) {
			out.Remove(int(ai))
		}
	}
	vz.addGraphEdgesArg(pred, p, slot)
	res.Materialized = append(res.Materialized, sreedhar.Affinity{
		Dst: p, Src: ai, Weight: it.weight, Block: pred.ID, Slot: slot, Phi: phiID, Instr: end,
	})
	res.RemainingWeight += it.weight
	return p
}

// stillLiveOut recomputes whether ai remains live at the predecessor's exit
// after its φ use moved into the block: it must be live-in of a successor
// or feed another φ along one of the predecessor's edges.
func (vz *Virtualizer) stillLiveOut(ai ir.VarID, pred *ir.Block) bool {
	for _, s := range pred.Succs {
		if vz.Live.LiveInBlock(ai, s.ID) {
			return true
		}
		pi := s.PredIndex(pred)
		for _, phi := range s.Phis {
			if phi.Uses[pi] == ai {
				return true
			}
		}
	}
	return false
}

// addGraphEdgesArg records the interferences of a primed variable defined
// by the end parallel copy of pred: it is live from the copy to the edge,
// so it meets everything live after the copy — the block's live-out set,
// terminator uses, and its sibling parallel-copy destinations.
func (vz *Virtualizer) addGraphEdgesArg(pred *ir.Block, p ir.VarID, slot int32) {
	if vz.M.Graph == nil {
		return
	}
	g, chk := vz.M.Graph, vz.M.Chk
	g.GrowTo(len(chk.F.Vars))
	add := func(l ir.VarID) {
		if l == p {
			return
		}
		if vz.Variant == Value && chk.Vals != nil && chk.Vals[l] == chk.Vals[p] {
			return
		}
		g.AddEdge(p, l)
	}
	vz.Live.Out(pred.ID).ForEach(func(l int) { add(ir.VarID(l)) })
	if t := pred.Terminator(); t != nil {
		for _, u := range t.Uses {
			add(u)
		}
	}
	if end := vz.Ins.EndCopies[pred.ID]; end != nil {
		for _, d := range end.Defs {
			if chk.LiveAfter(d, pred.ID, slot) {
				add(d)
			}
		}
	}
}

// addGraphEdgesResult records the interferences of a primed φ result: it is
// live from the block entry to the begin parallel copy, meeting the live-in
// variables and the block's other φ results.
func (vz *Virtualizer) addGraphEdgesResult(b *ir.Block, p ir.VarID) {
	if vz.M.Graph == nil {
		return
	}
	g, chk := vz.M.Graph, vz.M.Chk
	g.GrowTo(len(chk.F.Vars))
	add := func(l ir.VarID) {
		if l == p {
			return
		}
		if vz.Variant == Value && chk.Vals != nil && chk.Vals[l] == chk.Vals[p] {
			return
		}
		g.AddEdge(p, l)
	}
	vz.Live.In(b.ID).ForEach(func(l int) { add(ir.VarID(l)) })
	for _, phi := range b.Phis {
		if phi.Defs[0] != p {
			add(phi.Defs[0])
		}
	}
}

func slotOf(b *ir.Block, in *ir.Instr) int32 {
	for i, x := range b.Instrs {
		if x == in {
			return ir.SlotOfInstr(i)
		}
	}
	panic("coalesce: parallel copy not found in block")
}
