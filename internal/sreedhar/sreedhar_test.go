package sreedhar_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// TestMethodIProducesCSSA is Lemma 1: after copy insertion, every φ-web is
// interference-free (checked with pure intersection — the strongest form),
// so giving each web one name is a correct out-of-SSA translation.
func TestMethodIProducesCSSA(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		p := cfggen.DefaultProfile("cssa", 500+seed)
		p.Funcs = 5
		for _, f := range cfggen.Generate(p) {
			sreedhar.SplitDuplicatePredEdges(f)
			sreedhar.SplitBranchDefEdges(f)
			if _, err := sreedhar.InsertCopies(f); err != nil {
				t.Fatal(err)
			}
			dt := dom.Build(f)
			if err := ssa.VerifyIn(f, dt, nil); err != nil {
				t.Fatalf("%s: insertion broke SSA: %v", f.Name, err)
			}
			chk := &interference.Checker{
				F: f, DT: dt, DU: ir.NewDefUse(f), Live: liveness.Compute(f),
			}
			for _, members := range webMembers(phiWebs(f)) {
				for i, x := range members {
					for _, y := range members[i+1:] {
						if chk.Intersect(x, y) {
							t.Fatalf("%s: web members %s and %s intersect — not CSSA\n%s",
								f.Name, f.VarName(x), f.VarName(y), f)
						}
					}
				}
			}
		}
	}
}

func TestInsertCopiesStructure(t *testing.T) {
	src := `
func s {
entry:
  a = param 0
  b = param 1
  br a l r
l:
  jump j
r:
  jump j
j:
  x = phi l:a r:b
  print x
  ret x
}
`
	f := ir.MustParse(src)
	ins, err := sreedhar.InsertCopies(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins.PhiNodes) != 1 || len(ins.PhiNodes[0]) != 3 {
		t.Fatalf("φ-node must have 3 fresh variables, got %v", ins.PhiNodes)
	}
	if len(ins.Affinities) != 3 {
		t.Fatalf("3 φ copies expected, got %d", len(ins.Affinities))
	}
	// The begin copy lands right after the φs of j; end copies before the
	// jumps of l and r.
	j := f.Blocks[3]
	if j.Name != "j" || j.Instrs[0].Op != ir.OpParCopy {
		t.Fatalf("begin parallel copy missing in j:\n%s", f)
	}
	for _, name := range []string{"l", "r"} {
		for _, b := range f.Blocks {
			if b.Name != name {
				continue
			}
			if b.Instrs[0].Op != ir.OpParCopy || b.Instrs[1].Op != ir.OpJump {
				t.Fatalf("end parallel copy must precede the terminator of %s:\n%s", name, f)
			}
		}
	}
	// The φ now reads only primed variables.
	phi := j.Phis[0]
	for _, u := range phi.Uses {
		if f.VarName(u) == "a" || f.VarName(u) == "b" {
			t.Fatal("φ arguments must be the primed copies")
		}
	}
}

func TestInsertCopiesRejectsBranchDefArgs(t *testing.T) {
	src := `
func b {
entry:
  n = param 0
  jump h
h:
  i = phi entry:n h:j
  j = brdec i h x
x:
  print j
  ret j
}
`
	f := ir.MustParse(src)
	if _, err := sreedhar.InsertCopies(f); err == nil {
		t.Fatal("φ argument defined by Br_dec must be rejected before splitting")
	}
	// After splitting the offending edge, insertion succeeds.
	if n := sreedhar.SplitBranchDefEdges(f); n != 1 {
		t.Fatalf("one split expected, got %d", n)
	}
	if _, err := sreedhar.InsertCopies(f); err != nil {
		t.Fatalf("insertion after split: %v", err)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDuplicatePredEdges(t *testing.T) {
	// A conditional branch with both targets equal gives j two identical
	// predecessors.
	f := ir.NewFunc("dup")
	entry := f.NewBlock("entry")
	j := f.NewBlock("j")
	p := f.NewVar("p")
	a := f.NewVar("a")
	b := f.NewVar("b")
	x := f.NewVar("x")
	entry.Instrs = []*ir.Instr{
		{Op: ir.OpParam, Defs: []ir.VarID{p}},
		{Op: ir.OpConst, Defs: []ir.VarID{a}, Aux: 1},
		{Op: ir.OpConst, Defs: []ir.VarID{b}, Aux: 2},
		{Op: ir.OpBranch, Uses: []ir.VarID{p}},
	}
	ir.AddEdge(entry, j)
	ir.AddEdge(entry, j)
	j.Phis = []*ir.Instr{{Op: ir.OpPhi, Defs: []ir.VarID{x}, Uses: []ir.VarID{a, b}}}
	j.Instrs = []*ir.Instr{{Op: ir.OpRet, Uses: []ir.VarID{x}}}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	if n := sreedhar.SplitDuplicatePredEdges(f); n != 1 {
		t.Fatalf("one split expected, got %d", n)
	}
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	seen := map[*ir.Block]bool{}
	for _, pr := range j.Preds {
		if seen[pr] {
			t.Fatal("duplicate predecessors remain")
		}
		seen[pr] = true
	}
}

func TestCollectExistingCopies(t *testing.T) {
	src := `
func c {
entry (freq 2):
  a = param 0
  b = copy a
  parcopy x:a y:b
  print x
  print y
  ret b
}
`
	f := ir.MustParse(src)
	affs := sreedhar.CollectRealCopiesInto(f, nil, nil)
	if len(affs) != 3 {
		t.Fatalf("3 copies expected (1 plain + 2 parallel pairs), got %d", len(affs))
	}
	for _, a := range affs {
		if a.Phi != -1 {
			t.Fatal("existing copies are not φ-related")
		}
		if a.Weight != 2 {
			t.Fatalf("weight must be the block frequency, got %v", a.Weight)
		}
	}
}
