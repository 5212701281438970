package pipeline

import (
	"context"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
)

// TestRunBatchPooledTranslateScratch: batch translation with per-worker
// pooled core.Scratch reuse must not change the emitted code, the
// aggregate statistics, or any per-affinity coalescing decision
// (Result.Statuses) — compared against a sequential run that translates
// every function in a fresh core.Scratch, sharing no working state at
// all. Workers race over the scratch pool, so this is the test CI runs
// under -race alongside the pooled-liveness-scratch one.
func TestRunBatchPooledTranslateScratch(t *testing.T) {
	funcs := workload(t, 6071, 24)
	for _, opt := range []core.Options{
		{Strategy: core.Sharing, Linear: true, LiveCheck: true},
		{Strategy: core.Value, Virtualize: true, LiveCheck: true, Linear: true},
	} {
		// Sequential reference: fresh working state per function.
		seq := make([]*ir.Func, len(funcs))
		seqStatuses := make([][]coalesce.Status, len(funcs))
		var seqStats core.Stats
		for i, f := range funcs {
			seq[i] = ir.Clone(f)
			tr, err := core.NewTranslation(seq[i], opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			tr.SetScratch(core.NewScratch())
			for _, phase := range []func() error{tr.Insert, tr.Analyze, tr.Coalesce, tr.Rewrite} {
				if err := phase(); err != nil {
					t.Fatal(err)
				}
			}
			seqStats.Accumulate(tr.Stats)
			seqStatuses[i] = append([]coalesce.Status(nil), tr.CoalesceResult().Statuses...)
		}

		for _, workers := range []int{1, 8} {
			clones := make([]*ir.Func, len(funcs))
			for i, f := range funcs {
				clones[i] = ir.Clone(f)
			}
			res := RunBatch(context.Background(), clones, Translate(opt), workers)
			if err := res.Err(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range clones {
				if clones[i].String() != seq[i].String() {
					t.Fatalf("opt %+v workers=%d func %d: pooled batch IR differs from reference sequential run",
						opt, workers, i)
				}
				got := res.Contexts[i].Translation.CoalesceResult().Statuses
				if len(got) != len(seqStatuses[i]) {
					t.Fatalf("opt %+v workers=%d func %d: %d statuses, reference has %d",
						opt, workers, i, len(got), len(seqStatuses[i]))
				}
				for j := range got {
					if got[j] != seqStatuses[i][j] {
						t.Fatalf("opt %+v workers=%d func %d affinity %d: status %d, reference %d",
							opt, workers, i, j, got[j], seqStatuses[i][j])
					}
				}
			}
			if zeroNanos(res.Stats) != zeroNanos(seqStats) {
				t.Fatalf("opt %+v workers=%d: aggregate stats differ from reference:\nreference: %+v\nbatch:     %+v",
					opt, workers, zeroNanos(seqStats), zeroNanos(res.Stats))
			}
		}
	}
}
