package cfggen

import (
	"testing"

	"repro/internal/dom"
	"repro/internal/ir"
)

func TestLargeDeterministic(t *testing.T) {
	p := LargeLivenessProfile("det", 9, 0.05)
	a := GenerateLarge(p)
	b := GenerateLarge(p)
	if len(a) != len(b) {
		t.Fatal("function count differs")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("func %d differs between runs", i)
		}
	}
}

// TestLargeShape: the liveness corpus must actually contain what its
// profile promises — valid SSA-sized CFGs with deep loop nests and wide
// many-predecessor joins carrying φ pressure.
func TestLargeShape(t *testing.T) {
	fns := GenerateLarge(LargeLivenessProfile("shape", 77, 0.25))
	maxDepth, maxPreds, widePhis := 0, 0, 0
	for _, f := range fns {
		if err := ir.Verify(f); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if len(f.Blocks) < 200 {
			t.Fatalf("%s: only %d blocks at scale 0.25; the corpus must be large", f.Name, len(f.Blocks))
		}
		depth := dom.Build(f).LoopDepth()
		for _, b := range f.Blocks {
			if depth[b.ID] > maxDepth {
				maxDepth = depth[b.ID]
			}
			if len(b.Preds) > maxPreds {
				maxPreds = len(b.Preds)
			}
			for _, phi := range b.Phis {
				if len(phi.Uses) >= 6 {
					widePhis++
				}
			}
		}
	}
	if maxDepth < 3 {
		t.Fatalf("max loop depth %d: want deep nests", maxDepth)
	}
	if maxPreds < 6 {
		t.Fatalf("max join width %d: want wide switch joins", maxPreds)
	}
	if widePhis == 0 {
		t.Fatal("no wide φs: joins carry no pressure")
	}
}

// TestLargeScaleGrowsBlocks: the scale knob must actually control corpus
// size, with thousands of blocks at scale 1.
func TestLargeScaleGrowsBlocks(t *testing.T) {
	small := GenerateLarge(LargeLivenessProfile("sc", 5, 0.1))
	p := LargeLivenessProfile("sc", 5, 1)
	p.Funcs = 1
	big := GenerateLarge(p)
	if len(big[0].Blocks) < 1500 {
		t.Fatalf("scale-1 function has %d blocks; want thousands", len(big[0].Blocks))
	}
	if len(small[0].Blocks) >= len(big[0].Blocks) {
		t.Fatal("scale must shrink the corpus")
	}
}
