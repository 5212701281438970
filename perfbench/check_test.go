package main

import (
	"context"
	"testing"

	"repro/internal/ir"
	"repro/outofssa"
)

// swapSrc is the paper's swap problem (Figure 3): two φs exchange values
// every iteration, so the translation ends in a sequentialized copy cycle.
const swapSrc = `
func swap {
entry:
  a = param 0
  b = param 1
  zero = const 0
  jump loop
loop (freq 10):
  a2 = phi entry:a loop:b2
  b2 = phi entry:b loop:a2
  p = phi entry:zero loop:p2
  one = const 1
  p2 = add p one
  three = const 3
  c = cmplt p2 three
  print a2
  print b2
  br c loop exit
exit:
  ret a2
}
`

// cycleAt finds the first run of three consecutive copies — the
// sequentialized swap cycle with its cycle-breaking temporary.
func cycleAt(t *testing.T, f *outofssa.Func) (block, at int) {
	t.Helper()
	for bi, b := range f.Blocks {
		for i := 0; i+2 < len(b.Instrs); i++ {
			if b.Instrs[i].Op == ir.OpCopy && b.Instrs[i+1].Op == ir.OpCopy && b.Instrs[i+2].Op == ir.OpCopy {
				return bi, i
			}
		}
	}
	t.Fatalf("no sequentialized copy cycle in\n%s", f)
	return 0, 0
}

func TestCheckCountsMutatedTranslations(t *testing.T) {
	tr, err := outofssa.New()
	if err != nil {
		t.Fatal(err)
	}
	out := outofssa.MustParse(swapSrc)
	if _, err := tr.Translate(context.Background(), out); err != nil {
		t.Fatal(err)
	}
	var clean checkTally
	clean.addText(swapSrc, out.String())
	if clean.wrong != 0 {
		t.Fatalf("the correct translation was counted wrong: %v", clean.first)
	}

	b, i := cycleAt(t, out)
	dropped := outofssa.Clone(out)
	ins := dropped.Blocks[b].Instrs
	dropped.Blocks[b].Instrs = append(ins[:i+1:i+1], ins[i+2:]...)

	reordered := outofssa.Clone(out)
	ins = reordered.Blocks[b].Instrs
	ins[i], ins[i+1] = ins[i+1], ins[i]

	var tally checkTally
	tally.addText(swapSrc, dropped.String())
	tally.addText(swapSrc, reordered.String())
	if tally.checked != 2 || tally.wrong != 2 {
		t.Fatalf("checked %d, counted %d wrong; want both mutants counted (first: %v)", tally.checked, tally.wrong, tally.first)
	}
}

func TestCheckCountsLeftoverPhi(t *testing.T) {
	in := outofssa.MustParse(swapSrc)
	var tally checkTally
	tally.add(in, outofssa.MustParse(swapSrc))
	if tally.wrong != 1 {
		t.Fatal("an output that keeps its φ-functions was not counted")
	}
}
