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
// scratch's analysis storage; the remaining allocations are per-translation
// results (analysis cache, value table, liveness info), each a constant
// number of allocations independent of how many copies the translation
// inserts; the mutation phases themselves allocate nothing in steady
// state. The ordered backend's bound is higher because the paper's
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

			// The committed trajectory claims ≥2× fewer allocations than the
			// reference path; hold the floor here too.
			refOpt := cfg.opt
			refOpt.ReferenceAlloc = true
			ref := testing.AllocsPerRun(10, func() {
				clone := ir.Clone(pristine)
				if _, err := Translate(clone, refOpt); err != nil {
					t.Fatal(err)
				}
			})
			if got*2 > ref {
				t.Fatalf("pooled path allocates %v/run, reference %v/run: less than the claimed 2x gap", got, ref)
			}
		})
	}
}

// TestReferenceAllocMatchesPooled: the ReferenceAlloc baseline and the
// pooled path must produce byte-identical translated IR and identical
// deterministic statistics for every Figure 5 strategy — the trajectory
// benchmark isolates allocation cost, not translation quality.
func TestReferenceAllocMatchesPooled(t *testing.T) {
	funcs := cfggen.Generate(cfggen.DefaultProfile("refalloc", 1717))
	sc := NewScratch()
	for _, s := range Strategies {
		opt := Options{Strategy: s, Linear: true, LiveCheck: true}
		if s == SreedharIII {
			opt = Options{Strategy: s, Virtualize: true, UseGraph: true}
		}
		refOpt := opt
		refOpt.ReferenceAlloc = true
		for i, f := range funcs {
			pooled := ir.Clone(f)
			stP, err := TranslateInto(pooled, opt, nil, sc)
			if err != nil {
				t.Fatalf("%v func %d pooled: %v", s, i, err)
			}
			refc := ir.Clone(f)
			stR, err := Translate(refc, refOpt)
			if err != nil {
				t.Fatalf("%v func %d reference: %v", s, i, err)
			}
			if pooled.String() != refc.String() {
				t.Fatalf("%v func %d: pooled and reference translations differ:\n--- pooled\n%s--- reference\n%s",
					s, i, pooled.String(), refc.String())
			}
			if stP.RemainingCopies != stR.RemainingCopies || stP.FinalCopies != stR.FinalCopies ||
				stP.CycleCopies != stR.CycleCopies || stP.Affinities != stR.Affinities {
				t.Fatalf("%v func %d: stats diverge: pooled %+v reference %+v", s, i, stP, stR)
			}
		}
	}
}
