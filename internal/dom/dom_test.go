package dom_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/ir"
)

const diamond = `
func d {
entry:
  p = param 0
  br p t e
t:
  jump j
e:
  jump j
j:
  x = phi t:p e:p
  br x loop out
loop (freq 10):
  q = add x x
  br q loop out
out:
  ret p
}
`

func TestIDomDiamondAndLoop(t *testing.T) {
	f := ir.MustParse(diamond)
	dt := dom.Build(f)
	name := func(id int) string {
		if id < 0 {
			return "-"
		}
		return f.Blocks[id].Name
	}
	want := map[string]string{"t": "entry", "e": "entry", "j": "entry", "loop": "j", "out": "j"}
	for _, b := range f.Blocks {
		if b.Name == "entry" {
			if dt.IDom(b.ID) != -1 {
				t.Fatal("entry has no idom")
			}
			continue
		}
		if got := name(dt.IDom(b.ID)); got != want[b.Name] {
			t.Errorf("idom(%s) = %s, want %s", b.Name, got, want[b.Name])
		}
	}
	// out has two preds (j and loop): idom = j.
	if !dt.Dominates(blockID(f, "entry"), blockID(f, "out")) {
		t.Fatal("entry dominates everything")
	}
	if dt.Dominates(blockID(f, "t"), blockID(f, "j")) {
		t.Fatal("t must not dominate j")
	}
	if !dt.Dominates(blockID(f, "j"), blockID(f, "j")) {
		t.Fatal("dominance is reflexive")
	}
}

func TestFrontier(t *testing.T) {
	f := ir.MustParse(diamond)
	dt := dom.Build(f)
	df := dt.Frontier()
	hasIn := func(b string, target string) bool {
		for _, x := range df[blockID(f, b)] {
			if f.Blocks[x].Name == target {
				return true
			}
		}
		return false
	}
	if !hasIn("t", "j") || !hasIn("e", "j") {
		t.Fatal("j must be in DF of both arms")
	}
	if !hasIn("loop", "loop") {
		t.Fatal("loop header in its own frontier (back edge)")
	}
	if hasIn("entry", "j") {
		t.Fatal("entry dominates j; j not in its frontier")
	}
}

func TestLoopDepth(t *testing.T) {
	f := ir.MustParse(diamond)
	dt := dom.Build(f)
	depth := dt.LoopDepth()
	if depth[blockID(f, "loop")] != 1 {
		t.Fatalf("loop depth = %d", depth[blockID(f, "loop")])
	}
	if depth[blockID(f, "entry")] != 0 || depth[blockID(f, "out")] != 0 {
		t.Fatal("blocks outside loops must have depth 0")
	}
}

func TestUnreachableBlocks(t *testing.T) {
	f := ir.MustParse(diamond)
	dead := f.NewBlock("dead")
	dead.Instrs = []*ir.Instr{{Op: ir.OpRet}}
	dt := dom.Build(f)
	if dt.Reachable(dead.ID) {
		t.Fatal("dead block reported reachable")
	}
	if dt.Dominates(dead.ID, blockID(f, "out")) || dt.Dominates(blockID(f, "entry"), dead.ID) {
		t.Fatal("unreachable blocks dominate nothing and are dominated by nothing")
	}
}

// slowDominates is the definition: a dominates b iff removing a makes b
// unreachable from the entry (or a == b).
func slowDominates(f *ir.Func, a, b int) bool {
	if a == b {
		return true
	}
	seen := make([]bool, len(f.Blocks))
	seen[a] = true // pretend a is removed
	stack := []int{f.Entry().ID}
	if f.Entry().ID == a {
		return true
	}
	seen[f.Entry().ID] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return false
		}
		for _, s := range f.Blocks[x].Succs {
			if !seen[s.ID] {
				seen[s.ID] = true
				stack = append(stack, s.ID)
			}
		}
	}
	return true // b unreachable without a
}

// TestDominanceAgainstDefinition checks Build's O(1) queries against the
// brute-force definition on generated CFGs.
func TestDominanceAgainstDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	funcs := cfggen.Generate(cfggen.DefaultProfile("dom", 11))
	for _, f := range funcs {
		dt := dom.Build(f)
		n := len(f.Blocks)
		for trial := 0; trial < 200; trial++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if !dt.Reachable(a) || !dt.Reachable(b) {
				continue
			}
			want := slowDominates(f, a, b)
			if got := dt.Dominates(a, b); got != want {
				t.Fatalf("%s: Dominates(%s, %s) = %v, want %v",
					f.Name, f.Blocks[a].Name, f.Blocks[b].Name, got, want)
			}
		}
		// idom sanity: the immediate dominator strictly dominates its block
		// and every other dominator of the block dominates the idom.
		for _, b := range f.Blocks[1:] {
			if !dt.Reachable(b.ID) {
				continue
			}
			id := dt.IDom(b.ID)
			if id < 0 || !dt.StrictlyDominates(id, b.ID) {
				t.Fatalf("%s: idom(%s) invalid", f.Name, b.Name)
			}
		}
	}
}

// TestRPOIsTopologicalModuloBackEdges: every edge that is not a retreating
// edge goes forward in RPO.
func TestRPOIsTopologicalModuloBackEdges(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("rpo", 13))
	for _, f := range funcs {
		dt := dom.Build(f)
		pos := make([]int, len(f.Blocks))
		for i := range pos {
			pos[i] = -1
		}
		for i, b := range dt.RPO() {
			pos[b] = i
		}
		for _, b := range f.Blocks {
			if pos[b.ID] < 0 {
				continue
			}
			for _, s := range b.Succs {
				if dt.Dominates(s.ID, b.ID) {
					continue // back edge
				}
				if pos[s.ID] <= pos[b.ID] {
					t.Fatalf("%s: edge %s→%s not forward in RPO", f.Name, b.Name, s.Name)
				}
			}
		}
	}
}

func blockID(f *ir.Func, name string) int {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b.ID
		}
	}
	panic("no block " + name)
}

// TestLTMatchesCHK: the Lengauer-Tarjan construction must produce exactly
// the same immediate dominators as the iterative one, on hand graphs and on
// the generated suite.
func TestLTMatchesCHK(t *testing.T) {
	var funcs []*ir.Func
	funcs = append(funcs, ir.MustParse(diamond))
	for seed := int64(0); seed < 4; seed++ {
		p := cfggen.DefaultProfile("lt", 900+seed)
		p.Funcs = 5
		funcs = append(funcs, cfggen.Generate(p)...)
	}
	for _, f := range funcs {
		a := dom.Build(f)
		b := dom.BuildLT(f)
		for _, blk := range f.Blocks {
			if a.IDom(blk.ID) != b.IDom(blk.ID) {
				t.Fatalf("%s: idom(%s): CHK=%d LT=%d", f.Name, blk.Name,
					a.IDom(blk.ID), b.IDom(blk.ID))
			}
			for _, other := range f.Blocks {
				if a.Dominates(blk.ID, other.ID) != b.Dominates(blk.ID, other.ID) {
					t.Fatalf("%s: Dominates(%s,%s) disagree", f.Name, blk.Name, other.Name)
				}
			}
		}
	}
}

// TestDominanceTransitivity is a quick property over generated graphs.
func TestDominanceTransitivity(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("trans", 77))
	f := funcs[0]
	dt := dom.Build(f)
	n := len(f.Blocks)
	check := func(a, b, c uint8) bool {
		x, y, z := int(a)%n, int(b)%n, int(c)%n
		if dt.Dominates(x, y) && dt.Dominates(y, z) && !dt.Dominates(x, z) {
			return false
		}
		// Antisymmetry: mutual dominance implies equality.
		if x != y && dt.Dominates(x, y) && dt.Dominates(y, x) {
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildMatchesBuild: one Tree rebuilt in place for a sequence of
// functions, small after large, answers like a tree built fresh for each,
// its lazily computed frontier and loop depths included.
func TestRebuildMatchesBuild(t *testing.T) {
	var funcs []*ir.Func
	for _, scale := range []float64{0.5, 0.05} {
		funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeLivenessProfile("rb", 3, scale))...)
	}
	funcs = append(funcs, ir.MustParse(diamond))
	var tr dom.Tree
	for _, f := range funcs {
		tr.Rebuild(f)
		want := dom.Build(f)
		if !slices.Equal(tr.RPO(), want.RPO()) {
			t.Fatalf("%s: RPO differs from a fresh build", f.Name)
		}
		for _, b := range f.Blocks {
			if tr.IDom(b.ID) != want.IDom(b.ID) || tr.PreOrder(b.ID) != want.PreOrder(b.ID) ||
				tr.PostOrder(b.ID) != want.PostOrder(b.ID) || tr.RPONumber(b.ID) != want.RPONumber(b.ID) ||
				!slices.Equal(tr.Children(b.ID), want.Children(b.ID)) {
				t.Fatalf("%s: block %s differs from a fresh build", f.Name, b.Name)
			}
		}
		if !slices.Equal(tr.LoopDepth(), want.LoopDepth()) {
			t.Fatalf("%s: loop depths differ from a fresh build", f.Name)
		}
		for b, df := range tr.Frontier() {
			if !slices.Equal(df, want.Frontier()[b]) {
				t.Fatalf("%s: frontier of %s differs from a fresh build", f.Name, f.Blocks[b].Name)
			}
		}
	}
}
