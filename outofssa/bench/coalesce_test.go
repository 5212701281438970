package bench

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
)

func TestCoalesceCorpusDeterministicAndValid(t *testing.T) {
	a := CoalesceCorpus(0.05)
	b := CoalesceCorpus(0.05)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("corpus sizes: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Func().String() != b[i].Func().String() {
			t.Fatalf("case %d not deterministic", i)
		}
		if err := ir.Verify(a[i].Func()); err != nil {
			t.Fatalf("%s: %v", a[i].Name, err)
		}
		if a[i].Blocks != len(a[i].Func().Blocks) || a[i].Vars != len(a[i].Func().Vars) ||
			a[i].Affinities != len(a[i].Affs()) {
			t.Fatalf("%s: stale metadata", a[i].Name)
		}
		if a[i].Phis == 0 || a[i].Affinities == 0 {
			t.Fatalf("%s: corpus must be φ/copy-dense (phis=%d affinities=%d)",
				a[i].Name, a[i].Phis, a[i].Affinities)
		}
	}
}

// TestCoalesceCorpusEnginesAgree runs the differential check on the very
// unit of work BenchmarkCoalesce times: the optimized and reference query
// paths must coalesce identically, affinity by affinity.
func TestCoalesceCorpusEnginesAgree(t *testing.T) {
	for _, c := range CoalesceCorpus(0.03) {
		for _, bk := range coalesceBackends {
			opt := c.RunCoalesce(c.NewChecker(false, bk.livecheck))
			ref := c.RunCoalesce(c.NewChecker(true, bk.livecheck))
			if len(opt.Statuses) != len(ref.Statuses) {
				t.Fatalf("%s/%s: status lengths differ", c.Name, bk.name)
			}
			for i := range opt.Statuses {
				if opt.Statuses[i] != ref.Statuses[i] {
					t.Fatalf("%s/%s: affinity %d: optimized=%v reference=%v",
						c.Name, bk.name, i, opt.Statuses[i], ref.Statuses[i])
				}
			}
		}
	}
}

// oracleOptions returns the machinery the Figure 5 run uses for s, with the
// reference query path toggled.
func oracleOptions(s core.Strategy, reference bool) core.Options {
	opt := core.Options{Strategy: s, Linear: true, LiveCheck: true, ReferenceQueries: reference}
	if s == core.SreedharIII {
		opt = core.Options{Strategy: s, Virtualize: true, ReferenceQueries: reference}
	}
	return opt
}

// TestStrategiesReferenceOracle is the query path's acceptance oracle:
// for every Figure 5 strategy, the optimized query path (binary-search
// LiveAfter, packed def-point keys, pooled congruence scratch) and the
// kept reference path must make identical per-affinity coalescing
// decisions (Result.Statuses) — on the SPEC stand-in suite and on the
// φ/copy-dense corpus shape alike.
func TestStrategiesReferenceOracle(t *testing.T) {
	var funcs []*ir.Func
	for _, b := range Suite(0.05) {
		funcs = append(funcs, b.Funcs...)
	}
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeCoalesceProfile("oracle", 971, 0.04))...)

	for _, s := range core.Strategies {
		for _, f := range funcs {
			optRes := coalesceDecisions(t, ir.Clone(f), oracleOptions(s, false))
			refRes := coalesceDecisions(t, ir.Clone(f), oracleOptions(s, true))
			if len(optRes) != len(refRes) {
				t.Fatalf("%v/%s: status lengths differ: %d vs %d", s, f.Name, len(optRes), len(refRes))
			}
			for i := range optRes {
				if optRes[i] != refRes[i] {
					t.Fatalf("%v/%s: affinity %d decided differently: optimized=%v reference=%v",
						s, f.Name, i, optRes[i], refRes[i])
				}
			}
		}
	}
}

// coalesceDecisions runs the first three translation phases on f and
// returns the per-affinity statuses as plain ints.
func coalesceDecisions(t *testing.T, f *ir.Func, opt core.Options) []int {
	t.Helper()
	tr, err := core.NewTranslation(f, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []func() error{tr.Insert, tr.Analyze, tr.Coalesce} {
		if err := phase(); err != nil {
			t.Fatal(err)
		}
	}
	res := tr.CoalesceResult()
	out := make([]int, len(res.Statuses))
	for i, s := range res.Statuses {
		out[i] = int(s)
	}
	return out
}
