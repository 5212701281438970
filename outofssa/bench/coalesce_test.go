package bench

import (
	"testing"

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
