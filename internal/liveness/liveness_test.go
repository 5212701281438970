package liveness_test

import (
	"testing"
	"testing/quick"

	"repro/internal/cfggen"
	"repro/internal/ir"
	"repro/internal/liveness"
)

const loopSrc = `
func l {
entry:
  a = param 0
  b = const 1
  jump head
head:
  x = phi entry:a latch:y
  c = cmplt x b
  br c body exit
body:
  y = add x b
  jump latch
latch:
  print y
  jump head
exit:
  print a
  ret x
}
`

func names(f *ir.Func, s liveness.VarSet) map[string]bool {
	out := map[string]bool{}
	s.ForEach(func(v int) { out[f.VarName(ir.VarID(v))] = true })
	return out
}

func TestKnownLoopLiveness(t *testing.T) {
	f := ir.MustParse(loopSrc)
	l := liveness.Compute(f)
	id := func(n string) int {
		for _, b := range f.Blocks {
			if b.Name == n {
				return b.ID
			}
		}
		panic(n)
	}

	// φ def x is not live-in of head; φ args are live-out of their preds.
	in := names(f, l.In(id("head")))
	if in["x"] {
		t.Fatal("φ result must not be live-in of its block")
	}
	if !in["a"] {
		t.Fatal("a is live-in of head (used in exit and as φ arg)")
	}
	outEntry := names(f, l.Out(id("entry")))
	if !outEntry["a"] {
		t.Fatal("a is live-out of entry (φ use on the edge)")
	}
	outLatch := names(f, l.Out(id("latch")))
	if !outLatch["y"] {
		t.Fatal("y is live-out of latch (φ use on the back edge)")
	}
	if outLatch["x"] {
		t.Fatal("x is dead after the branch consumed it and exit is not reachable from latch")
	}
	// x live-out of head along the exit edge (ret x).
	if !names(f, l.Out(id("head")))["x"] {
		t.Fatal("x is live-out of head (ret in exit)")
	}
}

func TestBackendsAgree(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("livebe", 21))
	for _, f := range funcs {
		a := liveness.ComputeWith(f, liveness.Bitsets)
		b := liveness.ComputeWith(f, liveness.OrderedSets)
		for _, blk := range f.Blocks {
			for v := range f.Vars {
				vid := ir.VarID(v)
				if a.LiveInBlock(vid, blk.ID) != b.LiveInBlock(vid, blk.ID) {
					t.Fatalf("%s/%s: live-in disagreement on %s", f.Name, blk.Name, f.VarName(vid))
				}
				if a.LiveOutBlock(vid, blk.ID) != b.LiveOutBlock(vid, blk.ID) {
					t.Fatalf("%s/%s: live-out disagreement on %s", f.Name, blk.Name, f.VarName(vid))
				}
			}
		}
		if a.OrderedBytes() != b.OrderedBytes() {
			t.Fatalf("%s: evaluated ordered footprint must not depend on backend", f.Name)
		}
	}
}

// sameSets asserts two Infos agree on every (block, var) membership.
func sameSets(t *testing.T, f *ir.Func, got, want *liveness.Info, label string) {
	t.Helper()
	for _, b := range f.Blocks {
		for v := range f.Vars {
			vid := ir.VarID(v)
			if got.LiveInBlock(vid, b.ID) != want.LiveInBlock(vid, b.ID) {
				t.Fatalf("%s %s/%s: live-in disagreement on %s", label, f.Name, b.Name, f.VarName(vid))
			}
			if got.LiveOutBlock(vid, b.ID) != want.LiveOutBlock(vid, b.ID) {
				t.Fatalf("%s %s/%s: live-out disagreement on %s", label, f.Name, b.Name, f.VarName(vid))
			}
		}
	}
}

// TestWorklistMatchesReference is the property test of the worklist engine:
// across randomized medium CFGs and the large-CFG corpus shapes, both
// backends must produce live sets identical to the naive round-robin
// reference fixpoint, with a bounded number of worklist pops.
func TestWorklistMatchesReference(t *testing.T) {
	var funcs []*ir.Func
	for _, seed := range []int64{3, 17, 99} {
		funcs = append(funcs, cfggen.Generate(cfggen.DefaultProfile("wl", seed))...)
	}
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeLivenessProfile("wlbig", 41, 0.05))...)
	for _, f := range funcs {
		for _, be := range []liveness.Backend{liveness.Bitsets, liveness.OrderedSets} {
			got := liveness.ComputeWith(f, be)
			want := liveness.ComputeReference(f, be)
			sameSets(t, f, got, want, "worklist-vs-reference")
			// Each block is seeded once; a block is revisited only when a
			// successor's live-in grew, and the sets-only-grow lattice has
			// height ≤ nvars, so pops are bounded by blocks × (nvars + 1).
			// In practice RPO seeding keeps revisits near the loop nesting
			// depth — assert a much tighter bound to catch ordering
			// regressions, not just nontermination.
			n := len(f.Blocks)
			if got.Pops < n {
				t.Fatalf("%s: %d pops for %d blocks: every block must be visited", f.Name, got.Pops, n)
			}
			if got.Pops > 12*n {
				t.Fatalf("%s: %d pops for %d blocks: worklist convergence degraded", f.Name, got.Pops, n)
			}
			if got.Iterations > want.Iterations {
				t.Fatalf("%s: worklist max visits %d exceeds reference passes %d",
					f.Name, got.Iterations, want.Iterations)
			}
		}
	}
}

// TestScratchReuseAcrossSizes reuses one Scratch over functions of varying
// block/variable counts, in both growing and shrinking order — stale bits
// or stale capacities from a previous run must never leak into results or
// measured footprints.
func TestScratchReuseAcrossSizes(t *testing.T) {
	big := cfggen.GenerateLarge(cfggen.LargeLivenessProfile("sc", 5, 0.05))
	small := cfggen.Generate(cfggen.DefaultProfile("sc2", 11))
	order := append(append([]*ir.Func{}, big...), small...)
	order = append(order, big[0]) // shrink then grow again
	sc := new(liveness.Scratch)
	for _, f := range order {
		got := liveness.ComputeInto(f, liveness.Bitsets, sc)
		want := liveness.ComputeReference(f, liveness.Bitsets)
		sameSets(t, f, got, want, "scratch-reuse")
		if got.Bytes() != want.Bytes() {
			t.Fatalf("%s: pooled scratch changed measured footprint: %d vs %d",
				f.Name, got.Bytes(), want.Bytes())
		}
	}
}

// TestNonPositionalBlockIDs: liveness indexes every per-block vector
// positionally, so it must refuse a function whose block IDs drifted from
// their slice positions — and ir.Verify must flag that function first.
func TestNonPositionalBlockIDs(t *testing.T) {
	f := ir.MustParse(loopSrc)
	if err := ir.Verify(f); err != nil {
		t.Fatalf("baseline must verify: %v", err)
	}
	f.Blocks[1].ID, f.Blocks[2].ID = f.Blocks[2].ID, f.Blocks[1].ID
	if err := ir.Verify(f); err == nil {
		t.Fatal("ir.Verify must reject non-positional block IDs")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("liveness must panic on non-positional block IDs instead of mixing indices")
		}
	}()
	liveness.Compute(f)
}

// TestLivenessDefinition cross-checks the dataflow result against the
// path-based definition: v is live-out of b iff some φ-free-of-redef path
// from b's exit reaches a use of v.
func TestLivenessDefinition(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("livedef", 23))
	for _, f := range funcs[:4] {
		l := liveness.Compute(f)
		du := ir.NewDefUse(f)
		for _, b := range f.Blocks {
			for v := range f.Vars {
				vid := ir.VarID(v)
				if !du.HasDef(vid) {
					continue
				}
				want := slowLiveOut(f, du, vid, b.ID)
				if got := l.LiveOutBlock(vid, b.ID); got != want {
					t.Fatalf("%s: liveOut(%s, %s) = %v, want %v",
						f.Name, f.VarName(vid), b.Name, got, want)
				}
			}
		}
	}
}

// slowLiveOut: BFS from b's successors looking for an upward-exposed use of
// v (or a φ-use on an edge out of b), stopping at redefinitions.
func slowLiveOut(f *ir.Func, du *ir.DefUse, v ir.VarID, b int) bool {
	// φ use along an outgoing edge of b?
	for _, u := range du.Uses(v) {
		if u.Slot == ir.PhiUseSlot && int(u.Block) == b {
			return true
		}
	}
	visited := make([]bool, len(f.Blocks))
	var stack []int
	for _, s := range f.Blocks[b].Succs {
		stack = append(stack, s.ID)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[x] {
			continue
		}
		visited[x] = true
		blk := f.Blocks[x]
		upwardUse, redefined := false, false
		for _, phi := range blk.Phis {
			if phi.Defs[0] == v {
				redefined = true // φ defs rewrite v at block entry
			}
		}
	scan:
		for _, in := range blk.Instrs {
			if redefined {
				break
			}
			for _, u := range in.Uses {
				if u == v {
					upwardUse = true
					break scan
				}
			}
			for _, d := range in.Defs {
				if d == v {
					redefined = true
					break scan
				}
			}
		}
		if upwardUse {
			return true
		}
		if redefined {
			continue
		}
		// In SSA there are no redefinitions; φ defs shadow nothing either
		// (v is defined once). Continue through successors and check φ uses
		// along edges out of x.
		for _, u := range du.Uses(v) {
			if u.Slot == ir.PhiUseSlot && int(u.Block) == x {
				return true
			}
		}
		for _, s := range blk.Succs {
			stack = append(stack, s.ID)
		}
	}
	return false
}

// TestQuickDataflowInvariant: at the fixpoint, LiveOut(b) must equal the
// union of successors' LiveIn plus the φ uses along b's edges, and
// LiveIn(b) = upward-exposed ∪ (LiveOut \ defs). testing/quick picks the
// block and variable to probe.
func TestQuickDataflowInvariant(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("quickinv", 55))
	f := funcs[0]
	l := liveness.Compute(f)
	du := ir.NewDefUse(f)
	prop := func(bi, vi uint16) bool {
		b := f.Blocks[int(bi)%len(f.Blocks)]
		v := ir.VarID(int(vi) % len(f.Vars))
		want := false
		for _, s := range b.Succs {
			if l.LiveInBlock(v, s.ID) {
				want = true
			}
			pi := s.PredIndex(b)
			for _, phi := range s.Phis {
				if phi.Uses[pi] == v {
					want = true
				}
			}
		}
		if len(b.Succs) > 0 && l.LiveOutBlock(v, b.ID) != want {
			return false
		}
		// live-in implies (upward use) or (live-out and not defined here).
		if l.LiveInBlock(v, b.ID) {
			defHere := du.HasDef(v) && du.DefBlock(v) == b.ID
			if defHere {
				return false // pruned by the defs term
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
}
