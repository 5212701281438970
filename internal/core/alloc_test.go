package core

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
)

// midSizeFunc returns a deterministic mid-size SSA function (a few hundred
// blocks, dense φ pressure) for the steady-state allocation tests.
func midSizeFunc(t testing.TB) *ir.Func {
	t.Helper()
	fns := cfggen.GenerateLarge(cfggen.LargeTranslateProfile("alloc", 4242, 0.2))
	if len(fns) == 0 {
		t.Fatal("empty corpus")
	}
	return fns[0]
}

// TestTranslateSteadyStateAllocs: after warm-up, a pooled batch translation
// — CloneInto of a pristine template plus TranslateInto with a reused
// Scratch — of a mid-size function stays under a small fixed allocation
// bound, for both liveness-set backends and for the fast liveness checker.
// The dominator tree, the def-use index and the checker are rebuilt in the
// scratch's analysis storage, and the value table lives in the scratch too;
// the remaining allocations are per-translation records (the analysis
// cache, the Translation and its statistics, the interference checker, the
// congruence classes, the coalescing result, liveness info), each a
// constant number of allocations independent of how many copies the
// translation inserts, plus the blocks edge splitting adds to the clone. The ordered backend's bound is higher because the paper's
// measured set representation allocates exact-size slices on every set
// union by design (its Figure 7 footprint honesty depends on it).
func TestTranslateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun near the bound")
	}
	pristine := midSizeFunc(t)
	for _, cfg := range []struct {
		name  string
		opt   Options
		bound float64
	}{
		{"bitsets", Options{Strategy: Sharing, Linear: true}, 150},
		{"ordered", Options{Strategy: Sharing, Linear: true, OrderedSets: true}, 1200},
		{"livecheck", Options{Strategy: Sharing, Linear: true, LiveCheck: true}, 140},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			sc := NewScratch()
			dst := ir.NewFunc("")
			run := func() {
				ir.CloneInto(dst, pristine)
				if _, err := TranslateInto(dst, cfg.opt, nil, sc); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				run() // warm the scratch, the clone target, and the arenas
			}
			got := testing.AllocsPerRun(10, run)
			if got > cfg.bound {
				t.Fatalf("steady-state translation allocates %v times per run, bound %v", got, cfg.bound)
			}

			// Reuse must at least halve the allocations of a translation
			// that starts from a fresh scratch and a fresh clone.
			fresh := testing.AllocsPerRun(10, func() {
				clone := ir.Clone(pristine)
				if _, err := TranslateInto(clone, cfg.opt, nil, NewScratch()); err != nil {
					t.Fatal(err)
				}
			})
			if got*2 > fresh {
				t.Fatalf("pooled path allocates %v/run, fresh scratch %v/run: less than the claimed 2x gap", got, fresh)
			}
		})
	}
}

// TestFreshScratchMatchesPooled: a translation in a fresh scratch, which
// shares no working state with any earlier run, and the pooled path with
// one reused scratch must produce byte-identical translated IR and
// identical deterministic statistics for every Figure 5 strategy, so
// reusing a scratch changes allocation cost, not translation quality.
func TestFreshScratchMatchesPooled(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("refalloc", 1717))
	sc := NewScratch()
	for _, s := range Strategies {
		opt := Options{Strategy: s, Linear: true, LiveCheck: true}
		if s == SreedharIII {
			opt = Options{Strategy: s, Virtualize: true, UseGraph: true}
		}
		for i, f := range funcs {
			pooled := ir.Clone(f)
			stP, err := TranslateInto(pooled, opt, nil, sc)
			if err != nil {
				t.Fatalf("%v func %d pooled: %v", s, i, err)
			}
			fresh := ir.Clone(f)
			stF, err := TranslateInto(fresh, opt, nil, NewScratch())
			if err != nil {
				t.Fatalf("%v func %d fresh: %v", s, i, err)
			}
			if pooled.String() != fresh.String() {
				t.Fatalf("%v func %d: pooled and fresh-scratch translations differ:\n--- pooled\n%s--- fresh\n%s",
					s, i, pooled.String(), fresh.String())
			}
			if stP.RemainingCopies != stF.RemainingCopies || stP.FinalCopies != stF.FinalCopies ||
				stP.CycleCopies != stF.CycleCopies || stP.Affinities != stF.Affinities {
				t.Fatalf("%v func %d: stats diverge: pooled %+v fresh %+v", s, i, stP, stF)
			}
		}
	}
}
