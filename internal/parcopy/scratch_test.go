package parcopy

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ir"
)

// TestScratchMatchesReference: the epoch-stamped scratch engine and the
// kept map-based reference emit identical copy sequences on random
// parallel copies, including when one scratch is reused across many runs
// of different sizes.
func TestScratchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	sc := new(Scratch)
	for round := 0; round < 500; round++ {
		n := rng.Intn(12) + 1
		universe := n + rng.Intn(20) // IDs need not be dense
		perm := rng.Perm(universe)
		dsts := make([]ir.VarID, n)
		srcs := make([]ir.VarID, n)
		for i := 0; i < n; i++ {
			dsts[i] = ir.VarID(perm[i]) // unique destinations
			srcs[i] = ir.VarID(rng.Intn(universe))
		}
		fresh := func() ir.VarID { return ir.VarID(universe) }
		want := SequentializeReference(dsts, srcs, fresh)
		got := sc.Sequentialize(dsts, srcs, fresh)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(append([]Copy(nil), got...), want) {
			t.Fatalf("round %d: scratch %v != reference %v (dsts=%v srcs=%v)",
				round, got, want, dsts, srcs)
		}
	}
}

// TestScratchDuplicateDestinationPanics: the duplicate-destination
// rejection of PR 3 survives the map→epoch-slice conversion, on the
// scratch engine directly and through the pooled wrapper (covered by
// TestDuplicateDestinationPanics).
func TestScratchDuplicateDestinationPanics(t *testing.T) {
	sc := new(Scratch)
	// Warm the scratch so the stamps are non-zero when the duplicate shows.
	sc.Sequentialize(v(0, 1), v(1, 0), func() ir.VarID { return 9 })
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on duplicate destination")
		}
	}()
	sc.Sequentialize(v(1, 1), v(2, 3), nil)
}

// TestSpliceInPlacePreservesInstrIdentity: SequentializeInstr must keep
// every other instruction of the block — the ones before the parallel copy
// and the tail behind it — as the same *ir.Instr values in the same order,
// for tail shifts right (several copies), in place (one copy), and left
// (the all-self-copies parallel copy disappears).
func TestSpliceInPlacePreservesInstrIdentity(t *testing.T) {
	build := func(dsts, srcs []ir.VarID) (*ir.Func, *ir.Block, []*ir.Instr, []*ir.Instr) {
		f := ir.NewFunc("t")
		b := f.NewBlock("b")
		for i := 0; i < 8; i++ {
			f.NewVar("")
		}
		pre := []*ir.Instr{
			{Op: ir.OpConst, Defs: []ir.VarID{6}, Aux: 1},
			{Op: ir.OpConst, Defs: []ir.VarID{7}, Aux: 2},
		}
		tail := []*ir.Instr{
			{Op: ir.OpPrint, Uses: []ir.VarID{0}},
			{Op: ir.OpPrint, Uses: []ir.VarID{1}},
			{Op: ir.OpRet},
		}
		b.Instrs = append(append(append([]*ir.Instr{}, pre...),
			&ir.Instr{Op: ir.OpParCopy, Defs: dsts, Uses: srcs}), tail...)
		return f, b, pre, tail
	}
	check := func(t *testing.T, dsts, srcs []ir.VarID, wantCopies int) {
		t.Helper()
		f, b, pre, tail := build(dsts, srcs)
		sc := new(Scratch)
		seq := sc.SequentializeInstr(f, b, len(pre), func() ir.VarID { return f.NewVar("tmp") })
		if len(seq) != wantCopies {
			t.Fatalf("want %d copies, got %v", wantCopies, seq)
		}
		if len(b.Instrs) != len(pre)+wantCopies+len(tail) {
			t.Fatalf("block length %d, want %d", len(b.Instrs), len(pre)+wantCopies+len(tail))
		}
		for i, in := range pre {
			if b.Instrs[i] != in {
				t.Fatalf("prefix instruction %d lost its identity", i)
			}
		}
		for i := 0; i < wantCopies; i++ {
			if in := b.Instrs[len(pre)+i]; in.Op != ir.OpCopy ||
				in.Defs[0] != seq[i].Dst || in.Uses[0] != seq[i].Src {
				t.Fatalf("copy %d does not match emitted sequence %v", i, seq)
			}
		}
		for i, in := range tail {
			if b.Instrs[len(pre)+wantCopies+i] != in {
				t.Fatalf("tail instruction %d lost its identity or order", i)
			}
		}
	}
	t.Run("grow", func(t *testing.T) { check(t, v(0, 1), v(1, 0), 3) })   // swap: tail shifts right
	t.Run("same", func(t *testing.T) { check(t, v(0), v(1), 1) })         // one copy: tail stays put
	t.Run("chain", func(t *testing.T) { check(t, v(0, 1), v(1, 2), 2) })  // chain: exact replacement
	t.Run("vanish", func(t *testing.T) { check(t, v(0, 1), v(0, 1), 0) }) // self copies: tail shifts left
	t.Run("shrink", func(t *testing.T) { check(t, v(0, 1, 2), v(0, 1, 3), 1) })
}

// TestSequentializeInstrMatchesReference: the in-place splice and the kept
// double-copy reference rewrite produce the same instruction stream.
func TestSequentializeInstrMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sc := new(Scratch)
	for round := 0; round < 200; round++ {
		n := rng.Intn(8) + 1
		perm := rng.Perm(n + 4)
		dsts := make([]ir.VarID, n)
		srcs := make([]ir.VarID, n)
		for i := 0; i < n; i++ {
			dsts[i] = ir.VarID(perm[i])
			srcs[i] = ir.VarID(rng.Intn(n + 4))
		}
		mk := func() (*ir.Func, *ir.Block) {
			f := ir.NewFunc("t")
			b := f.NewBlock("b")
			for i := 0; i < n+4; i++ {
				f.NewVar("")
			}
			b.Instrs = []*ir.Instr{
				{Op: ir.OpConst, Defs: []ir.VarID{0}, Aux: 7},
				{Op: ir.OpParCopy, Defs: append([]ir.VarID(nil), dsts...), Uses: append([]ir.VarID(nil), srcs...)},
				{Op: ir.OpRet},
			}
			return f, b
		}
		fo, bo := mk()
		fr, br := mk()
		sc.SequentializeInstr(fo, bo, 1, func() ir.VarID { return fo.NewVar("tmp") })
		SequentializeInstrReference(fr, br, 1, func() ir.VarID { return fr.NewVar("tmp") })
		if len(bo.Instrs) != len(br.Instrs) {
			t.Fatalf("round %d: lengths differ: %d vs %d", round, len(bo.Instrs), len(br.Instrs))
		}
		for i := range bo.Instrs {
			a, b := bo.Instrs[i], br.Instrs[i]
			if a.Op != b.Op || !reflect.DeepEqual(append([]ir.VarID(nil), a.Defs...), append([]ir.VarID(nil), b.Defs...)) ||
				!reflect.DeepEqual(append([]ir.VarID(nil), a.Uses...), append([]ir.VarID(nil), b.Uses...)) {
				t.Fatalf("round %d instr %d: %v/%v/%v vs %v/%v/%v",
					round, i, a.Op, a.Defs, a.Uses, b.Op, b.Defs, b.Uses)
			}
		}
	}
}
