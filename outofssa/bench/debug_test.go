package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

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

// TestStrategySpread is a canary: the lost-copy example must separate the
// Intersect strategy (which cannot coalesce x1 with the φ-node when x1
// stays live) from Value, and on the suite Value must remove strictly more
// copies than Intersect.
func TestStrategySpread(t *testing.T) {
	counts := map[core.Strategy]int{}
	for _, s := range core.Strategies {
		f := ir.MustParse(lostCopySrc)
		opt := fig5Options(s)
		st, err := core.TranslateInto(f, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[s] = st.RemainingCopies
		t.Logf("lostcopy %-12s remaining=%d final=%d affinities=%d", s, st.RemainingCopies, st.FinalCopies, st.Affinities)
	}
	suite := Suite(0.3)
	suiteCounts := map[core.Strategy]int{}
	for _, s := range []core.Strategy{core.Intersect, core.Chaitin, core.Value} {
		tot, aff, phis := 0, 0, 0
		for _, b := range suite {
			for _, f := range b.Funcs {
				st, err := core.TranslateInto(ir.Clone(f), fig5Options(s), nil)
				if err != nil {
					t.Fatal(err)
				}
				tot += st.RemainingCopies
				aff += st.Affinities
				phis += st.Phis
			}
		}
		suiteCounts[s] = tot
		t.Logf("suite %-12s remaining=%d affinities=%d phis=%d", s, tot, aff, phis)
	}
	if suiteCounts[core.Value] >= suiteCounts[core.Intersect] {
		t.Errorf("suite: Value (%d) should beat Intersect (%d)",
			suiteCounts[core.Value], suiteCounts[core.Intersect])
	}
	// On the lost-copy problem every strategy must keep exactly the one
	// uncoalescible copy (x2 interferes with the φ-node; Figure 4d). The
	// Sreedhar III baseline may keep an extra one.
	for s, c := range counts {
		if s == core.SreedharIII {
			continue
		}
		if c != 1 {
			t.Errorf("%s: lost-copy should keep exactly 1 copy, got %d", s, c)
		}
	}
}
