package pipeline

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
)

// TestVerifySSAAllocs: verification runs in the worker's scratch. Its
// dominator tree is built in the analysis storage, which the translation
// behind it reuses, and its definition table comes from the scratch. So in
// steady state a one-worker RunBatch with VerifySSA ahead of the
// out-of-SSA passes may allocate at most one more time per function than
// the same batch without it.
func TestVerifySSAAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun")
	}
	pristine := workload(t, 4711, 24)
	work := make([]*ir.Func, len(pristine))
	for i, f := range pristine {
		work[i] = ir.Clone(f)
	}
	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
	plain := Translate(opt)
	verified := New(append([]Pass{VerifySSA()}, OutOfSSA(opt)...)...)
	run := func(pl *Pipeline) func() {
		return func() {
			for i, f := range pristine {
				ir.CloneInto(work[i], f)
			}
			if err := RunBatch(context.Background(), work, pl, 1, nil).Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		// Warm the scratch, the clone targets and their arenas.
		run(plain)()
		run(verified)()
	}
	without := testing.AllocsPerRun(10, run(plain))
	with := testing.AllocsPerRun(10, run(verified))
	if extra := (with - without) / float64(len(pristine)); extra > 1 {
		t.Fatalf("verification adds %.1f allocations per function (%v with, %v without, %d functions); bound 1",
			extra, with, without, len(pristine))
	}
	t.Logf("%v allocations per batch with verification, %v without, %d functions", with, without, len(pristine))
}
