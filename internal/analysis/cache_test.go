package analysis

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/liveness"
)

// buildDiamond returns a small SSA function:
//
//	entry → (then | else) → join, with a φ in join.
func buildDiamond(t *testing.T) *ir.Func {
	t.Helper()
	f, err := ir.Parse(`
func diamond {
entry:
  x = param 0
  zero = const 0
  c = cmplt x zero
  br c then else
then:
  one = const 1
  a = add x one
  jump join
else:
  two = const 2
  b = add x two
  jump join
join:
  y = phi then:a else:b
  print y
  ret y
}
`)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCacheMemoizes(t *testing.T) {
	f := buildDiamond(t)
	c := NewCache(f)

	dt := c.Dom()
	if c.Misses[Dom] != 1 || c.Hits[Dom] != 0 {
		t.Fatalf("first Dom: misses=%d hits=%d", c.Misses[Dom], c.Hits[Dom])
	}
	if c.Dom() != dt {
		t.Fatal("second Dom request returned a different tree")
	}
	if c.Hits[Dom] != 1 {
		t.Fatalf("second Dom was not a hit: hits=%d", c.Hits[Dom])
	}

	du := c.DefUse()
	live := c.Liveness(liveness.Bitsets)
	lck := c.LiveCheck()
	if c.DefUse() != du || c.Liveness(liveness.Bitsets) != live || c.LiveCheck() != lck {
		t.Fatal("repeated requests recomputed despite no mutation")
	}
}

// TestCacheCodeMutation: an instruction-level mutation must recompute
// def-use and liveness but preserve the dominator tree (the CFG is
// untouched).
func TestCacheCodeMutation(t *testing.T) {
	f := buildDiamond(t)
	c := NewCache(f)

	dt, du, live := c.Dom(), c.DefUse(), c.Liveness(liveness.Bitsets)

	// Append a copy instruction before the terminator of the entry block.
	v := f.NewVar("t") // bumps the code generation
	entry := f.Entry()
	ir.InsertBefore(entry, ir.CopyInsertIndex(entry), &ir.Instr{
		Op: ir.OpCopy, Defs: []ir.VarID{v}, Uses: []ir.VarID{entry.Instrs[0].Defs[0]},
	})

	if c.Dom() != dt {
		t.Fatal("dominator tree was recomputed although the CFG is unchanged")
	}
	if c.DefUse() == du {
		t.Fatal("stale def-use index served after instruction mutation")
	}
	if c.Liveness(liveness.Bitsets) == live {
		t.Fatal("stale liveness served after instruction mutation")
	}
}

// TestCacheCFGMutation: a CFG mutation must recompute everything.
func TestCacheCFGMutation(t *testing.T) {
	f := buildDiamond(t)
	c := NewCache(f)

	dt, du, live, lck := c.Dom(), c.DefUse(), c.Liveness(liveness.Bitsets), c.LiveCheck()

	// Split the critical-free edge entry→then.
	ir.SplitEdge(f, f.Blocks[0], f.Blocks[1])

	if c.Dom() == dt {
		t.Fatal("stale dominator tree served after CFG mutation")
	}
	if c.DefUse() == du {
		t.Fatal("stale def-use served after CFG mutation")
	}
	if c.Liveness(liveness.Bitsets) == live {
		t.Fatal("stale liveness served after CFG mutation")
	}
	if c.LiveCheck() == lck {
		t.Fatal("stale liveness checker served after CFG mutation")
	}
}

// TestCachePreserve: a pass that maintains an analysis by hand revalidates
// it with Preserve and keeps being served the same object, while
// non-preserved analyses are recomputed.
func TestCachePreserve(t *testing.T) {
	f := buildDiamond(t)
	c := NewCache(f)

	du := c.DefUse()
	live := c.Liveness(liveness.Bitsets)

	v := f.NewVar("m")
	entry := f.Entry()
	in := &ir.Instr{Op: ir.OpCopy, Defs: []ir.VarID{v}, Uses: []ir.VarID{entry.Instrs[0].Defs[0]}}
	idx := ir.CopyInsertIndex(entry)
	ir.InsertBefore(entry, idx, in)
	// The "pass" keeps the def-use index consistent itself.
	du.AddDef(v, entry.ID, ir.SlotOfInstr(idx), in)
	du.AddUse(entry.Instrs[0].Defs[0], entry.ID, ir.SlotOfInstr(idx), in)
	c.Preserve(DefUse)

	if c.DefUse() != du {
		t.Fatal("preserved def-use index was recomputed")
	}
	if c.Liveness(liveness.Bitsets) == live {
		t.Fatal("liveness was not preserved and must be recomputed")
	}
}

// TestCacheLivenessBackendChange: asking for the other representation
// recomputes even without mutation.
func TestCacheLivenessBackendChange(t *testing.T) {
	f := buildDiamond(t)
	c := NewCache(f)
	a := c.Liveness(liveness.Bitsets)
	b := c.Liveness(liveness.OrderedSets)
	if a == b {
		t.Fatal("backend change did not recompute liveness")
	}
	if c.Misses[Liveness] != 2 {
		t.Fatalf("misses = %d, want 2", c.Misses[Liveness])
	}
}

// TestCacheLivenessScratchReuse: recomputations after invalidation draw
// pooled worklist scratch; reuse must never leak stale state between runs
// — the recomputed sets must match a scratch-free reference computation.
func TestCacheLivenessScratchReuse(t *testing.T) {
	f := buildDiamond(t)
	c := NewCache(f)

	l1 := c.Liveness(liveness.Bitsets)
	// Append "print x" before the terminator of join: x becomes live
	// through both arms.
	join := f.Blocks[3]
	x := f.Vars[0].ID
	term := join.Instrs[len(join.Instrs)-1]
	join.Instrs = append(join.Instrs[:len(join.Instrs)-1],
		&ir.Instr{Op: ir.OpPrint, Uses: []ir.VarID{x}}, term)
	f.MarkCodeMutated()

	l2 := c.Liveness(liveness.Bitsets)
	if l2 == l1 {
		t.Fatal("mutation must recompute liveness")
	}
	if !l2.LiveInBlock(x, join.ID) {
		t.Fatal("recomputed liveness missed the new use")
	}
	// A fresh analysis agrees with the scratch-reusing one.
	ref := liveness.ComputeReference(f, liveness.Bitsets)
	for _, b := range f.Blocks {
		for v := range f.Vars {
			vid := ir.VarID(v)
			if l2.LiveInBlock(vid, b.ID) != ref.LiveInBlock(vid, b.ID) ||
				l2.LiveOutBlock(vid, b.ID) != ref.LiveOutBlock(vid, b.ID) {
				t.Fatalf("scratch reuse corrupted results at %s/%s", b.Name, f.VarName(vid))
			}
		}
	}
}

// TestCacheStorage: with storage installed, misses rebuild in it; a rebuild
// that panics on non-SSA input leaves nothing cached that a Preserve could
// revive; detaching drops every entry that lives in the storage.
func TestCacheStorage(t *testing.T) {
	f := buildDiamond(t)
	var st Storage
	c := NewCache(f)
	c.UseStorage(&st)
	if c.Dom() != &st.dom || c.DefUse() != &st.du || c.LiveCheck() != &st.lck {
		t.Fatal("misses with storage installed did not build in it")
	}

	// Make f non-SSA: a second definition of y.
	join := f.Blocks[3]
	y := join.Phis[0].Defs[0]
	join.Instrs = append([]*ir.Instr{{Op: ir.OpConst, Defs: []ir.VarID{y}}}, join.Instrs...)
	f.MarkCodeMutated()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("def-use rebuild on non-SSA input did not panic")
			}
		}()
		c.DefUse()
	}()
	c.Preserve(DefUse)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a half-built def-use index was served after a failed rebuild")
			}
		}()
		c.DefUse()
	}()

	join.Instrs = join.Instrs[1:]
	f.MarkCodeMutated()
	c.DefUse()
	c.UseStorage(nil)
	if c.Dom() == &st.dom || c.DefUse() == &st.du || c.LiveCheck() == &st.lck {
		t.Fatal("entries built in detached storage are still served")
	}
}
