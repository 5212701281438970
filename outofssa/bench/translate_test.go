package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

func TestTranslateCorpusDeterministicAndValid(t *testing.T) {
	a := TranslateCorpus(0.05)
	b := TranslateCorpus(0.05)
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
		if a[i].Blocks != len(a[i].Func().Blocks) || a[i].Vars != len(a[i].Func().Vars) {
			t.Fatalf("%s: stale metadata", a[i].Name)
		}
		if a[i].Phis == 0 {
			t.Fatalf("%s: corpus must carry φ pressure", a[i].Name)
		}
	}
}

// TestTranslateEnginesAgree runs the differential check on the very unit of
// work BenchmarkTranslate times: for every case and Figure 5 strategy, the
// pooled engine (CloneInto + reused scratch) and the reference engine
// (Clone + ReferenceAlloc) must emit byte-identical code and identical
// deterministic statistics.
func TestTranslateEnginesAgree(t *testing.T) {
	sc := core.NewScratch()
	for _, c := range TranslateCorpus(0.03) {
		dst := ir.NewFunc("")
		for _, s := range core.Strategies {
			opt := fig5Options(s)
			ir.CloneInto(dst, c.Func())
			stP, err := core.TranslateInto(dst, opt, nil, sc)
			if err != nil {
				t.Fatalf("%s/%v pooled: %v", c.Name, s, err)
			}
			refOpt := opt
			refOpt.ReferenceAlloc = true
			refc := ir.Clone(c.Func())
			stR, err := core.Translate(refc, refOpt)
			if err != nil {
				t.Fatalf("%s/%v reference: %v", c.Name, s, err)
			}
			if dst.String() != refc.String() {
				t.Fatalf("%s/%v: engines emit different code", c.Name, s)
			}
			if stP.RemainingCopies != stR.RemainingCopies || stP.FinalCopies != stR.FinalCopies {
				t.Fatalf("%s/%v: stats diverge: pooled %d/%d reference %d/%d", c.Name, s,
					stP.RemainingCopies, stP.FinalCopies, stR.RemainingCopies, stR.FinalCopies)
			}
		}
	}
}
