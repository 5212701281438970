package cfggen_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/ssa"
)

func TestDeterministic(t *testing.T) {
	a := cfggen.Generate(cfggen.DefaultProfile("det", 5))
	b := cfggen.Generate(cfggen.DefaultProfile("det", 5))
	if len(a) != len(b) {
		t.Fatal("function counts differ")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("function %d differs between runs", i)
		}
	}
}

func TestGeneratedAreStrictSSA(t *testing.T) {
	for _, f := range cfggen.Generate(cfggen.DefaultProfile("strict", 8)) {
		if err := ssa.VerifyIn(f, dom.Build(f), nil); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

func TestGeneratedTerminate(t *testing.T) {
	inputs := [][]int64{{0, 0}, {9, -4}, {1, 1}}
	for _, f := range cfggen.Generate(cfggen.DefaultProfile("term", 12)) {
		for _, in := range inputs {
			if _, err := interp.Run(f, in, 200000); err != nil {
				t.Fatalf("%s on %v: %v", f.Name, in, err)
			}
		}
	}
}

// TestPinnedRangesDisjoint: the generator must keep same-register pinned
// variables non-intersecting, because the translator force-merges them.
func TestPinnedRangesDisjoint(t *testing.T) {
	for _, f := range cfggen.Generate(cfggen.DefaultProfile("pin", 19)) {
		dt := dom.Build(f)
		chk := &interference.Checker{
			F: f, DT: dt, DU: ir.NewDefUse(f), Live: liveness.Compute(f),
		}
		byReg := map[string][]ir.VarID{}
		for i, v := range f.Vars {
			if v.Reg != "" {
				byReg[v.Reg] = append(byReg[v.Reg], ir.VarID(i))
			}
		}
		for reg, vars := range byReg {
			for i, x := range vars {
				for _, y := range vars[i+1:] {
					if chk.Intersect(x, y) {
						t.Fatalf("%s: pinned %s and %s (both %s) intersect",
							f.Name, f.VarName(x), f.VarName(y), reg)
					}
				}
			}
		}
	}
}

// TestWorkloadIsInteresting: the suite must actually exercise the paper's
// machinery — φs, non-conventional webs, pinned copies, Br_dec loops.
func TestWorkloadIsInteresting(t *testing.T) {
	phis, brdecs, pinned, copies := 0, 0, 0, 0
	for _, f := range cfggen.Generate(cfggen.DefaultProfile("mix", 27)) {
		for _, b := range f.Blocks {
			phis += len(b.Phis)
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpBrDec:
					brdecs++
				case ir.OpCopy:
					copies++
				}
			}
		}
		for _, v := range f.Vars {
			if v.Reg != "" {
				pinned++
			}
		}
	}
	if phis < 20 || brdecs < 1 || pinned < 4 || copies < 5 {
		t.Fatalf("workload too tame: %d φs, %d brdecs, %d pinned, %d copies",
			phis, brdecs, pinned, copies)
	}
}

func TestFrequenciesFollowLoopDepth(t *testing.T) {
	for _, f := range cfggen.Generate(cfggen.DefaultProfile("freq", 33)) {
		dt := dom.Build(f)
		depth := dt.LoopDepth()
		for _, b := range f.Blocks {
			want := 1.0
			for i := 0; i < depth[b.ID] && i < 6; i++ {
				want *= 10
			}
			if b.Freq != want {
				t.Fatalf("%s/%s: freq %v at depth %d", f.Name, b.Name, b.Freq, depth[b.ID])
			}
		}
	}
}
