package regalloc_test

import (
	"fmt"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/regalloc"
)

func translated(t *testing.T, seed int64, n int) []*ir.Func {
	t.Helper()
	p := cfggen.DefaultProfile("ra", seed)
	p.Funcs = n
	funcs := cfggen.Generate(p)
	for _, f := range funcs {
		if _, err := core.TranslateInto(f, core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}, nil); err != nil {
			t.Fatal(err)
		}
	}
	return funcs
}

func pool(n int) []string {
	regs := []string{"R0", "R1"}
	for i := len(regs); i < n; i++ {
		regs = append(regs, fmt.Sprintf("r%d", i))
	}
	return regs
}

// TestAllocateAndVerify allocates every translated function with pools of
// several sizes and runs the independent verifier. This is also an
// end-to-end check on the translator: had coalescing ever merged two
// interfering variables, the merged variable's interval would be fine but
// the program's semantics — checked elsewhere — and the spill behaviour
// would drift; here we assert structural consistency.
func TestAllocateAndVerify(t *testing.T) {
	for _, regs := range []int{4, 6, 12, 24} {
		for _, f := range translated(t, int64(1000+regs), 6) {
			res, err := regalloc.AllocateWith(f, pool(regs), liveness.Compute(f))
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			if err := regalloc.VerifyWith(f, res, liveness.Compute(f)); err != nil {
				t.Fatalf("%s (pool %d): %v", f.Name, regs, err)
			}
			if res.RegsUsed > regs {
				t.Fatalf("%s: used %d registers from a pool of %d", f.Name, res.RegsUsed, regs)
			}
		}
	}
}

func TestPinnedVariablesGetTheirRegister(t *testing.T) {
	for _, f := range translated(t, 2000, 8) {
		res, err := regalloc.AllocateWith(f, pool(10), liveness.Compute(f))
		if err != nil {
			t.Fatal(err)
		}
		for v, vr := range f.Vars {
			if vr.Reg == "" {
				continue
			}
			got := res.RegOf[v]
			if got != "" && got != vr.Reg {
				t.Fatalf("%s: %s pinned to %s, allocated %s", f.Name, vr.Name, vr.Reg, got)
			}
		}
	}
}

func TestSmallPoolSpills(t *testing.T) {
	spills := 0
	for _, f := range translated(t, 3000, 6) {
		res, err := regalloc.AllocateWith(f, pool(3), liveness.Compute(f))
		if err != nil {
			t.Fatal(err)
		}
		if err := regalloc.VerifyWith(f, res, liveness.Compute(f)); err != nil {
			t.Fatal(err)
		}
		spills += res.Spills
	}
	if spills == 0 {
		t.Fatal("a 3-register pool must force spills on this workload")
	}
}

func TestRejectsPhis(t *testing.T) {
	f := ir.MustParse(`
func p {
entry:
  a = param 0
  br a l r
l:
  jump j
r:
  jump j
j:
  x = phi l:a r:a
  ret x
}
`)
	if _, err := regalloc.AllocateWith(f, pool(4), liveness.Compute(f)); err == nil {
		t.Fatal("φ-carrying input must be rejected")
	}
}

func TestRejectsMissingPinnedRegister(t *testing.T) {
	f := ir.NewFunc("m")
	b := f.NewBlock("entry")
	x := f.NewPinnedVar("x", "R9")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{x}, Aux: 1},
		{Op: ir.OpRet, Uses: []ir.VarID{x}},
	}
	if _, err := regalloc.AllocateWith(f, []string{"r0", "r1"}, liveness.Compute(f)); err == nil {
		t.Fatal("pool without the pinned register must be rejected")
	}
}

func TestVerifyCatchesBadAssignment(t *testing.T) {
	f := ir.MustParse(`
func bad {
entry:
  a = param 0
  b = param 1
  c = add a b
  print c
  ret a
}
`)
	res, err := regalloc.AllocateWith(f, pool(4), liveness.Compute(f))
	if err != nil {
		t.Fatal(err)
	}
	if err := regalloc.VerifyWith(f, res, liveness.Compute(f)); err != nil {
		t.Fatal(err)
	}
	// Force a and b into one register: they are simultaneously live.
	res.RegOf[0] = "r2"
	res.RegOf[1] = "r2"
	if err := regalloc.VerifyWith(f, res, liveness.Compute(f)); err == nil {
		t.Fatal("verifier must reject overlapping assignment")
	}
}

// TestApplySemantics is the end-to-end back-end check: generate SSA code,
// translate out of SSA, allocate registers, rewrite the code onto physical
// registers, and compare observable behaviour with the original program on
// several inputs. Any interference missed by coalescing or allocation
// would corrupt a value and fail here.
func TestApplySemantics(t *testing.T) {
	inputs := [][]int64{{0, 0}, {4, 9}, {-6, 2}}
	for _, seed := range []int64{4000, 4001, 4002} {
		p := cfggen.DefaultProfile("apply", seed)
		p.Funcs = 5
		for _, orig := range cfggen.Generate(p) {
			f := ir.Clone(orig)
			if _, err := core.TranslateInto(f, core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}, nil); err != nil {
				t.Fatal(err)
			}
			res, err := regalloc.AllocateWith(f, pool(16), liveness.Compute(f))
			if err != nil {
				t.Fatal(err)
			}
			if err := regalloc.VerifyWith(f, res, liveness.Compute(f)); err != nil {
				t.Fatal(err)
			}
			if err := regalloc.Apply(f, res); err != nil {
				t.Fatal(err)
			}
			if err := ir.Verify(f); err != nil {
				t.Fatalf("%s: applied code invalid: %v", f.Name, err)
			}
			for _, in := range inputs {
				want, err := interp.Run(orig, in, 200000)
				if err != nil {
					t.Fatal(err)
				}
				got, err := interp.Run(f, in, 200000)
				if err != nil {
					t.Fatalf("%s: allocated code failed on %v: %v\n%s", f.Name, in, err, f)
				}
				if !interp.Equal(want, got) {
					t.Fatalf("%s: allocated code misbehaves on %v\n%s", f.Name, in, f)
				}
			}
		}
	}
}
