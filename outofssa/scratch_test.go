package outofssa

import (
	"context"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
)

// TestTranslateMatchesFreshScratch: Translate runs a function inside one
// pool-drawn scratch from verification to rewrite, as a batch worker does,
// so consecutive calls on one Translator rebuild their analyses in arrays a
// larger or smaller function left behind. Translating large and small
// functions alternately must give each the output and statistics of a
// translation in a fresh scratch.
func TestTranslateMatchesFreshScratch(t *testing.T) {
	lp := cfggen.LargeTranslateProfile("alternate", 8009, 0.3)
	lp.Funcs = 3
	large := cfggen.GenerateLarge(lp)
	sp := cfggen.DefaultProfile("alternate", 31)
	sp.Funcs = 6
	small := cfggen.Generate(sp)
	var funcs []*ir.Func
	for i, f := range large {
		funcs = append(funcs, f, small[2*i], small[2*i+1])
	}

	tr, err := New()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, f := range funcs {
			want := ir.Clone(f)
			wantSt, err := core.TranslateInto(want, tr.opt, nil, core.NewScratch())
			if err != nil {
				t.Fatalf("func %d: %v", i, err)
			}
			got := ir.Clone(f)
			res, err := tr.Translate(context.Background(), got)
			if err != nil {
				t.Fatalf("round %d func %d: %v", round, i, err)
			}
			if got.String() != want.String() {
				t.Fatalf("round %d func %d: Translate differs from a fresh-scratch translation:\n--- want\n%s--- got\n%s",
					round, i, want, got)
			}
			gotSt := *res.Stats
			gotSt.InsertNanos, gotSt.AnalyzeNanos, gotSt.CoalesceNanos, gotSt.RewriteNanos = 0, 0, 0, 0
			wantSt.InsertNanos, wantSt.AnalyzeNanos, wantSt.CoalesceNanos, wantSt.RewriteNanos = 0, 0, 0, 0
			if gotSt != *wantSt {
				t.Fatalf("round %d func %d: stats %+v, fresh scratch %+v", round, i, gotSt, *wantSt)
			}
		}
	}
}
