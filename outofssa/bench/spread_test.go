package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// liveOutSrc: the φ argument x3 is also used after the loop, so the copy
// u2 = x3 at the latch intersects x3's remaining live range. Intersect must
// keep that copy; Value coalesces it (same value).
const liveOutSrc = `
func liveout {
entry:
  x1 = param 0
  jump loop
loop:
  x2 = phi entry:x1 loop:x3
  one = const 1
  x3 = add x2 one
  ten = const 10
  c = cmplt x3 ten
  br c loop exit
exit:
  y = add x3 x2
  print y
  print x3
  ret x2
}
`

func TestValueBeatsIntersectOnLiveOutArg(t *testing.T) {
	counts := map[core.Strategy]int{}
	for _, s := range core.Strategies {
		f := ir.MustParse(liveOutSrc)
		st, err := core.TranslateInto(f, fig5Options(s), nil)
		if err != nil {
			t.Fatal(err)
		}
		counts[s] = st.RemainingCopies
		t.Logf("%-12s remaining=%d final=%d", s, st.RemainingCopies, st.FinalCopies)
	}
	if counts[core.Value] >= counts[core.Intersect] {
		t.Errorf("Value (%d) should beat Intersect (%d)", counts[core.Value], counts[core.Intersect])
	}
}
