package bench

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/liveness"
)

func TestLivenessCorpusDeterministicAndValid(t *testing.T) {
	a := LivenessCorpus(0.05)
	b := LivenessCorpus(0.05)
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
	}
}

// TestLivenessCorpusEnginesAgree runs the differential check on the very
// corpus BenchmarkLiveness times (the benchmark claim depends on it).
func TestLivenessCorpusEnginesAgree(t *testing.T) {
	for _, c := range LivenessCorpus(0.03) {
		f := c.Func()
		got := liveness.ComputeWith(f, liveness.Bitsets)
		want := liveness.ComputeReference(f, liveness.Bitsets)
		for _, b := range f.Blocks {
			for v := range f.Vars {
				vid := ir.VarID(v)
				if got.LiveInBlock(vid, b.ID) != want.LiveInBlock(vid, b.ID) ||
					got.LiveOutBlock(vid, b.ID) != want.LiveOutBlock(vid, b.ID) {
					t.Fatalf("%s/%s: engines disagree on %s", c.Name, b.Name, f.VarName(vid))
				}
			}
		}
	}
}
