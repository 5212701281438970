package core_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
)

// strategyOptions returns a direct-query (no interference graph)
// configuration of s, so every intersection test flows through the checker
// and lands in Stats.IntersectionTests.
func strategyOptions(s core.Strategy) core.Options {
	opt := core.Options{Strategy: s, Linear: true, LiveCheck: true}
	if s == core.SreedharIII {
		opt = core.Options{Strategy: s, Virtualize: true}
	}
	return opt
}

// TestEveryStrategyCountsQueries is the regression test for the Chaitin
// query-count bug: ChaitinInterferes performed its intersection tests via
// LiveAfter without ever incrementing Checker.Queries, so
// Stats.IntersectionTests reported 0 for the Chaitin strategy and
// Figure 6-style output undercounted. Every Figure 5 strategy must report
// a nonzero, plausible query count on a φ-heavy function.
func TestEveryStrategyCountsQueries(t *testing.T) {
	p := cfggen.DefaultProfile("queries", 631)
	p.Funcs = 3
	funcs := cfggen.Generate(p)
	for _, s := range core.Strategies {
		total, affs := 0, 0
		for _, f := range funcs {
			st, err := core.TranslateInto(ir.Clone(f), strategyOptions(s), nil)
			if err != nil {
				t.Fatalf("%v: %v", s, err)
			}
			total += st.IntersectionTests
			affs += st.Affinities
		}
		if total == 0 {
			t.Fatalf("%v: IntersectionTests = 0 on a φ-heavy workload", s)
		}
		// Plausibility: the class-level machinery issues at most a few tests
		// per member pair per affinity; anything beyond a generous quadratic
		// envelope means runaway double counting.
		if limit := affs * affs * 64; total > limit {
			t.Fatalf("%v: IntersectionTests = %d implausibly high (affinities %d, limit %d)",
				s, total, affs, limit)
		}
	}
}
