package core

import (
	"fmt"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/interp"
	"repro/internal/ir"
)

// allOptions enumerates the machinery combinations benchmarked in Figure 6,
// for a given strategy.
func allOptions(s Strategy) []Options {
	if s == SreedharIII {
		return []Options{
			{Strategy: s, Virtualize: true, UseGraph: true},
			{Strategy: s, Virtualize: true, UseGraph: true, OrderedSets: true},
		}
	}
	base := []Options{
		{Strategy: s, UseGraph: true},
		{Strategy: s},
		{Strategy: s, OrderedSets: true},
		{Strategy: s, LiveCheck: true},
		{Strategy: s, LiveCheck: true, Linear: true},
		{Strategy: s, Linear: true},
		{Strategy: s, LiveCheck: true, Linear: true, SplitCriticalEdges: true},
		{Strategy: s, Virtualize: true, UseGraph: true},
		{Strategy: s, Virtualize: true},
		{Strategy: s, Virtualize: true, LiveCheck: true, Linear: true},
	}
	return base
}

func optName(o Options) string {
	n := o.Strategy.String()
	if o.Virtualize {
		n += "+Virt"
	}
	if o.UseGraph {
		n += "+Graph"
	}
	if o.LiveCheck {
		n += "+LiveCheck"
	}
	if o.Linear {
		n += "+Linear"
	}
	if o.OrderedSets {
		n += "+Ordered"
	}
	if o.SplitCriticalEdges {
		n += "+CritSplit"
	}
	return n
}

// runEquiv translates a copy of src with the options and checks observable
// equivalence against the original on several inputs.
func runEquiv(t *testing.T, src string, opt Options, inputs [][]int64) *Stats {
	t.Helper()
	orig := ir.MustParse(src)
	f := ir.MustParse(src)
	st, err := TranslateInto(f, opt, nil)
	if err != nil {
		t.Fatalf("%s: translate: %v\n%s", optName(opt), err, src)
	}
	for _, in := range inputs {
		want, err := interp.Run(orig, in, 100000)
		if err != nil {
			t.Fatalf("reference run failed: %v", err)
		}
		got, err := interp.Run(f, in, 100000)
		if err != nil {
			t.Fatalf("%s: translated run failed: %v\nparams %v\noutput:\n%s", optName(opt), err, in, f)
		}
		if !interp.Equal(want, got) {
			t.Fatalf("%s: behaviour differs on %v:\nwant ret=%v trace=%v\ngot  ret=%v trace=%v\noutput:\n%s",
				optName(opt), in, want.Ret, want.Trace, got.Ret, got.Trace, f)
		}
	}
	return st
}

var defaultInputs = [][]int64{{0, 0}, {1, 2}, {5, 3}, {-4, 7}, {100, -100}}

// swapSrc is the paper's Figure 3: two φ-functions forming a swap across a
// loop. A naive sequential copy placement miscompiles it.
const swapSrc = `
func swap {
entry:
  a = param 0
  b = param 1
  zero = const 0
  jump loop
loop:
  a2 = phi entry:a loop:b2
  b2 = phi entry:b loop:a2
  p = phi entry:zero loop:p2
  one = const 1
  p2 = add p one
  three = const 3
  c = cmplt p2 three
  print a2
  print b2
  br c loop exit
exit:
  ret a2
}
`

// lostCopySrc is the paper's Figure 4: the φ result is live out of the loop
// while its argument is redefined inside — dropping the copy loses a value.
const lostCopySrc = `
func lostcopy {
entry:
  x1 = param 0
  zero = const 0
  jump loop
loop:
  x2 = phi entry:x1 loop:x3
  one = const 1
  x3 = add x2 one
  ten = const 10
  c = cmplt x3 ten
  br c loop exit
exit:
  print x2
  ret x2
}
`

// figure1Src reproduces Figure 1: u is used by the branch of B2, so the
// copy inserted before the branch still interferes with u. An
// implementation that only checks live-out sets generates wrong code.
const figure1Src = `
func fig1 {
entry:
  u = param 0
  v = param 1
  c = cmplt u v
  br c b1 b2
b1:
  jump b0
b2:
  br u b3 b0
b3:
  print u
  ret u
b0:
  w = phi b1:u b2:v
  print w
  ret w
}
`

// figure2Src reproduces Figure 2: the loop counter is decremented by the
// branch itself (Br_dec); its φ argument is the terminator-defined value,
// which forces edge splitting.
const figure2Src = `
func fig2 {
entry:
  u0 = param 0
  t0 = copy u0
  jump b1
b1:
  u1 = phi entry:u0 b1:u2
  t1 = phi entry:t0 b1:t2
  five = const 5
  t2 = add t1 five
  u2 = brdec u1 b1 b2
b2:
  print u2
  print t1
  ret t2
}
`

func TestSwapProblem(t *testing.T) {
	for _, s := range Strategies {
		for _, opt := range allOptions(s) {
			st := runEquiv(t, swapSrc, opt, defaultInputs)
			if st.FinalCopies == 0 {
				t.Errorf("%s: swap needs at least one copy sequence", optName(opt))
			}
		}
	}
}

func TestLostCopyProblem(t *testing.T) {
	for _, s := range Strategies {
		for _, opt := range allOptions(s) {
			st := runEquiv(t, lostCopySrc, opt, defaultInputs)
			// The copy between x2 and x3 cannot be coalesced: they
			// interfere (Figure 4c). At least one copy must remain under
			// every strategy.
			if st.FinalCopies == 0 {
				t.Errorf("%s: lost-copy requires a remaining copy", optName(opt))
			}
		}
	}
}

func TestFigure1BranchUses(t *testing.T) {
	for _, s := range Strategies {
		for _, opt := range allOptions(s) {
			runEquiv(t, figure1Src, opt, [][]int64{{0, 0}, {0, 1}, {1, 0}, {2, 5}, {5, 2}})
		}
	}
}

func TestFigure2BrDec(t *testing.T) {
	for _, s := range Strategies {
		for _, opt := range allOptions(s) {
			st := runEquiv(t, figure2Src, opt, [][]int64{{1, 0}, {2, 0}, {5, 0}})
			if st.SplitEdges == 0 {
				t.Errorf("%s: Br_dec φ argument must force an edge split", optName(opt))
			}
		}
	}
}

// TestGeneratedEquivalence is the main correctness property: on generated
// workloads, every strategy × machinery combination must preserve
// observable behaviour exactly.
func TestGeneratedEquivalence(t *testing.T) {
	prof := cfggen.DefaultProfile("equiv", 42)
	prof.Funcs = 8
	funcs := cfggen.Generate(prof)
	inputs := [][]int64{{0, 0}, {3, 1}, {-2, 9}, {17, 17}}
	for fi, f := range funcs {
		src := f.String()
		for _, s := range Strategies {
			for _, opt := range allOptions(s) {
				t.Run(fmt.Sprintf("f%d/%s", fi, optName(opt)), func(t *testing.T) {
					runEquiv(t, src, opt, inputs)
				})
			}
		}
	}
}

// TestGeneratedEquivalenceDeep soaks many more seeds with the two most
// important configurations; skipped with -short.
func TestGeneratedEquivalenceDeep(t *testing.T) {
	if testing.Short() {
		t.Skip("deep soak skipped in -short mode")
	}
	inputs := [][]int64{{0, 0}, {7, -3}, {25, 4}}
	for seed := int64(0); seed < 12; seed++ {
		prof := cfggen.DefaultProfile("soak", 5000+seed)
		prof.Funcs = 5
		for _, f := range cfggen.Generate(prof) {
			src := f.String()
			runEquiv(t, src, Options{Strategy: Sharing, Linear: true, LiveCheck: true}, inputs)
			runEquiv(t, src, Options{Strategy: SreedharIII, Virtualize: true, UseGraph: true, OrderedSets: true}, inputs)
		}
	}
}

// TestTranslatedHasNoPhis checks the output is standard code.
func TestTranslatedHasNoPhis(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("nophi", 7))
	for _, f := range funcs {
		if _, err := TranslateInto(f, Options{Strategy: Value, Linear: true, LiveCheck: true}, nil); err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Blocks {
			if len(b.Phis) != 0 {
				t.Fatalf("φ left in %s of %s", b.Name, f.Name)
			}
			for _, in := range b.Instrs {
				if in.Op == ir.OpParCopy {
					t.Fatalf("parallel copy left in %s of %s", b.Name, f.Name)
				}
			}
		}
	}
}

// TestOrderedSetsAndCriticalSplitOptions: the liveness-set backend and the
// critical-edge pre-split must not change observable behaviour.
func TestOrderedSetsAndCriticalSplitOptions(t *testing.T) {
	prof := cfggen.DefaultProfile("optmatrix", 99)
	prof.Funcs = 5
	inputs := [][]int64{{0, 0}, {6, 2}}
	opts := []Options{
		{Strategy: Value, OrderedSets: true},
		{Strategy: Value, OrderedSets: true, UseGraph: true},
		{Strategy: Sharing, Linear: true, SplitCriticalEdges: true, LiveCheck: true},
		{Strategy: SreedharIII, Virtualize: true, UseGraph: true, OrderedSets: true},
	}
	for _, f := range cfggen.Generate(prof) {
		src := f.String()
		for _, opt := range opts {
			runEquiv(t, src, opt, inputs)
		}
	}
}

// TestKeepParallelCopies: with sequentialization disabled, remaining copies
// stay as OpParCopy instructions.
func TestKeepParallelCopies(t *testing.T) {
	f := ir.MustParse(swapSrc)
	st, err := TranslateInto(f, Options{Strategy: Value, Linear: true, LiveCheck: true, KeepParallelCopies: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpParCopy {
				par += len(in.Defs)
			}
		}
	}
	if par == 0 || par != st.RemainingCopies {
		t.Fatalf("parallel pairs %d must match remaining copies %d", par, st.RemainingCopies)
	}
	if st.FinalCopies != 0 {
		t.Fatal("no sequential copies expected in parallel mode")
	}
}

// TestStatsConsistency: sequential copies = remaining parallel pairs plus
// cycle breakers minus shared-removed... the rewrite drops self pairs, so
// FinalCopies = RemainingCopies + CycleCopies exactly.
func TestStatsConsistency(t *testing.T) {
	prof := cfggen.DefaultProfile("stats", 123)
	prof.Funcs = 6
	for _, f := range cfggen.Generate(prof) {
		for _, s := range []Strategy{Intersect, Value, Sharing} {
			g := ir.Clone(f)
			st, err := TranslateInto(g, Options{Strategy: s, Linear: true, LiveCheck: true}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if st.FinalCopies != st.RemainingCopies+st.CycleCopies {
				t.Fatalf("%s/%s: final %d != remaining %d + cycle %d",
					f.Name, s, st.FinalCopies, st.RemainingCopies, st.CycleCopies)
			}
		}
	}
}

// TestCriticalSplitNeverHurtsQuality: splitting critical edges gives the
// coalescer strictly more freedom (shorter ranges at copy points).
func TestCriticalSplitNeverHurtsQuality(t *testing.T) {
	prof := cfggen.DefaultProfile("csq", 321)
	prof.Funcs = 8
	worse := 0
	for _, f := range cfggen.Generate(prof) {
		a, err := TranslateInto(ir.Clone(f), Options{Strategy: Value, Linear: true, LiveCheck: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := TranslateInto(ir.Clone(f), Options{Strategy: Value, Linear: true, LiveCheck: true, SplitCriticalEdges: true}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.RemainingCopies > a.RemainingCopies {
			worse++
		}
	}
	// Not a theorem (weights shift with new blocks), but a regression here
	// would signal broken split handling.
	if worse > 2 {
		t.Fatalf("critical-edge splitting degraded %d of 8 functions", worse)
	}
}

// TestPhiFreeFunctionIsUntouched: a function without φs or copies needs no
// work; the translator must pass it through unchanged (modulo verification).
func TestPhiFreeFunctionIsUntouched(t *testing.T) {
	src := `
func plain {
entry:
  a = param 0
  b = add a a
  print b
  ret b
}
`
	f := ir.MustParse(src)
	before := f.String()
	st, err := TranslateInto(f, Options{Strategy: Sharing, Linear: true, LiveCheck: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.String() != before {
		t.Fatalf("φ-free function changed:\n%s", f)
	}
	if st.Affinities != 0 || st.FinalCopies != 0 {
		t.Fatalf("no work expected: %+v", st)
	}
}

// TestTranslateDeterminism: the translator must be a pure function of its
// input and options — the benchmark harness depends on it.
func TestTranslateDeterminism(t *testing.T) {
	prof := cfggen.DefaultProfile("det", 77)
	prof.Funcs = 4
	for _, f := range cfggen.Generate(prof) {
		for _, opt := range []Options{
			{Strategy: Sharing, Linear: true, LiveCheck: true},
			{Strategy: SreedharIII, Virtualize: true, UseGraph: true},
		} {
			a, b := ir.Clone(f), ir.Clone(f)
			if _, err := TranslateInto(a, opt, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := TranslateInto(b, opt, nil); err != nil {
				t.Fatal(err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s/%s: nondeterministic output", f.Name, optName(opt))
			}
		}
	}
}
