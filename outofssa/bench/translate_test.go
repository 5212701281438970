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
// pooled engine (CloneInto + reused scratch) and a translation in a fresh
// scratch that no earlier run touched (Clone + TranslateInto with
// core.NewScratch) must emit byte-identical code and identical
// deterministic statistics.
func TestTranslateEnginesAgree(t *testing.T) {
	sc := core.NewScratch()
	for _, c := range TranslateCorpus(0.03) {
		dst := ir.NewFunc("")
		for _, s := range core.Strategies {
			opt := fig5Options(s)
			ir.CloneInto(dst, c.Func())
			stP, err := core.TranslateInto(dst, opt, sc)
			if err != nil {
				t.Fatalf("%s/%v pooled: %v", c.Name, s, err)
			}
			fresh := ir.Clone(c.Func())
			stF, err := core.TranslateInto(fresh, opt, core.NewScratch())
			if err != nil {
				t.Fatalf("%s/%v fresh: %v", c.Name, s, err)
			}
			if dst.String() != fresh.String() {
				t.Fatalf("%s/%v: engines emit different code", c.Name, s)
			}
			if stP.RemainingCopies != stF.RemainingCopies || stP.FinalCopies != stF.FinalCopies {
				t.Fatalf("%s/%v: stats diverge: pooled %d/%d fresh %d/%d", c.Name, s,
					stP.RemainingCopies, stP.FinalCopies, stF.RemainingCopies, stF.FinalCopies)
			}
		}
	}
}
