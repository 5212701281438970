package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ir"
)

// stealWorkload builds the shape the work-stealing driver exists for: a
// pool of small functions with two much larger stragglers appended at the
// *end* of the input, so the last contiguous shard holds the most work and
// every multi-worker run has to steal to finish hot.
func stealWorkload(t *testing.T, seed int64, n int) []*ir.Func {
	t.Helper()
	funcs := workload(t, seed, n)
	p := cfggen.LargeScaleProfile("straggle", seed+1, 0.3)
	p.Funcs = 2
	return append(funcs, cfggen.GenerateLarge(p)...)
}

func statuses(pctx *Context) []coalesce.Status {
	if pctx == nil || pctx.Translation == nil || pctx.Translation.CoalesceResult() == nil {
		return nil
	}
	return pctx.Translation.CoalesceResult().Statuses
}

// TestRunBatchStealingMatchesReference is the work-stealing acceptance
// property: across worker counts (1/2/3/8/32 — contended, oversubscribed,
// and degenerate shardings alike) and both liveness-set backends, the
// stealing driver produces bit-identical translated IR, identical
// per-affinity coalescing decisions (Result.Statuses), and an identical
// aggregate Stats, compared against both a plain sequential run and the
// retained single-channel RunBatchReference dispatcher. CI runs it under
// -race, which additionally proves no two workers ever share scratch
// state.
func TestRunBatchStealingMatchesReference(t *testing.T) {
	funcs := stealWorkload(t, 8086, 28)
	for _, opt := range []core.Options{
		{Strategy: core.Sharing, Linear: true, LiveCheck: true},
		{Strategy: core.Value, Virtualize: true},
		{Strategy: core.Value, Virtualize: true, OrderedSets: true},
	} {
		pl := Translate(opt)

		// Sequential oracle: one function at a time through core.TranslateInto.
		seq := make([]*ir.Func, len(funcs))
		var seqStats core.Stats
		for i, f := range funcs {
			seq[i] = ir.Clone(f)
			st, err := core.TranslateInto(seq[i], opt, nil)
			if err != nil {
				t.Fatal(err)
			}
			seqStats.Accumulate(st)
		}

		// Reference dispatcher at a fixed worker count.
		refClones := make([]*ir.Func, len(funcs))
		for i, f := range funcs {
			refClones[i] = ir.Clone(f)
		}
		ref := RunBatchReference(context.Background(), refClones, pl, 4)
		if err := ref.Err(); err != nil {
			t.Fatalf("opt %+v: reference driver: %v", opt, err)
		}

		for _, workers := range []int{1, 2, 3, 8, 32} {
			clones := make([]*ir.Func, len(funcs))
			for i, f := range funcs {
				clones[i] = ir.Clone(f)
			}
			res := RunBatch(context.Background(), clones, pl, workers, nil)
			if err := res.Err(); err != nil {
				t.Fatalf("opt %+v workers=%d: %v", opt, workers, err)
			}
			for i := range clones {
				if got, want := clones[i].String(), seq[i].String(); got != want {
					t.Fatalf("opt %+v workers=%d func %d: stealing IR differs from sequential:\n--- sequential\n%s--- stealing\n%s",
						opt, workers, i, want, got)
				}
				if got, want := clones[i].String(), refClones[i].String(); got != want {
					t.Fatalf("opt %+v workers=%d func %d: stealing IR differs from RunBatchReference",
						opt, workers, i)
				}
				got, want := statuses(res.Contexts[i]), statuses(ref.Contexts[i])
				if len(got) != len(want) {
					t.Fatalf("opt %+v workers=%d func %d: %d statuses, reference has %d",
						opt, workers, i, len(got), len(want))
				}
				for j := range got {
					if got[j] != want[j] {
						t.Fatalf("opt %+v workers=%d func %d affinity %d: status %d, reference %d",
							opt, workers, i, j, got[j], want[j])
					}
				}
			}
			if zeroNanos(res.Stats) != zeroNanos(seqStats) {
				t.Fatalf("opt %+v workers=%d: aggregate stats differ from sequential:\nsequential: %+v\nstealing:   %+v",
					opt, workers, zeroNanos(seqStats), zeroNanos(res.Stats))
			}
			if zeroNanos(res.Stats) != zeroNanos(ref.Stats) {
				t.Fatalf("opt %+v workers=%d: aggregate stats differ from RunBatchReference", opt, workers)
			}
		}
	}
}

// TestRunBatchStealingCancellation cancels mid-batch with a racing worker
// pool: every index must end in exactly one of the three legal states —
// completed (bit-identical to the sequential run, counted in the stats
// fold), claimed-then-cut-off at a pass boundary (context error, partial
// context), or never claimed (context error, nil context) — and the
// aggregate must equal the input-order fold of exactly the completed
// functions.
func TestRunBatchStealingCancellation(t *testing.T) {
	funcs := stealWorkload(t, 2121, 24)
	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}

	seq := make([]*ir.Func, len(funcs))
	for i, f := range funcs {
		seq[i] = ir.Clone(f)
		if _, err := core.TranslateInto(seq[i], opt, nil); err != nil {
			t.Fatal(err)
		}
	}

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	pl := New(append([]Pass{{
		Name: "cancel-on-fifth",
		Run: func(*Context) error {
			if started.Add(1) == 5 {
				cancel()
			}
			return nil
		},
	}}, OutOfSSA(opt)...)...)

	clones := make([]*ir.Func, len(funcs))
	for i, f := range funcs {
		clones[i] = ir.Clone(f)
	}
	res := RunBatch(cctx, clones, pl, 4, nil)

	var want core.Stats
	completed, skipped := 0, 0
	for i := range funcs {
		switch {
		case res.Errs[i] == nil:
			completed++
			if clones[i].String() != seq[i].String() {
				t.Fatalf("func %d completed but differs from sequential run", i)
			}
			if res.Contexts[i] == nil || res.Contexts[i].Stats == nil {
				t.Fatalf("func %d completed without stats", i)
			}
			want.Accumulate(res.Contexts[i].Stats)
		case errors.Is(res.Errs[i], context.Canceled):
			if res.Contexts[i] == nil {
				skipped++
			}
		default:
			t.Fatalf("func %d: unexpected error %v", i, res.Errs[i])
		}
	}
	if completed == len(funcs) {
		t.Fatal("cancellation had no effect — every function completed")
	}
	if !errors.Is(res.Err(), context.Canceled) {
		t.Fatalf("combined error hides the cancellation: %v", res.Err())
	}
	if zeroNanos(res.Stats) != zeroNanos(want) {
		t.Fatalf("aggregate stats are not the input-order fold of the completed functions:\nwant %+v\ngot  %+v",
			zeroNanos(want), zeroNanos(res.Stats))
	}
	t.Logf("completed %d, cut off %d, never claimed %d",
		completed, len(funcs)-completed-skipped, skipped)
}

// TestRunBatchWorkersDefaultGOMAXPROCS: workers <= 0 must resolve to
// runtime.GOMAXPROCS(0), not runtime.NumCPU() — a capped scheduler
// (container CPU quota, `go test -cpu 2`) would otherwise be
// oversubscribed by NumCPU goroutines contending for fewer Ps. The
// regression is observable by raising GOMAXPROCS above NumCPU: the old
// default stuck at NumCPU, the fixed one follows the scheduler.
func TestRunBatchWorkersDefaultGOMAXPROCS(t *testing.T) {
	gm := runtime.NumCPU() + 2
	old := runtime.GOMAXPROCS(gm)
	defer runtime.GOMAXPROCS(old)

	funcs := workload(t, 4242, gm+3)
	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
	for _, run := range []struct {
		name  string
		drive func(context.Context, []*ir.Func, *Pipeline, int) *BatchResult
	}{
		{"stealing", runBatchNoDone},
		{"reference", RunBatchReference},
	} {
		clones := make([]*ir.Func, len(funcs))
		for i, f := range funcs {
			clones[i] = ir.Clone(f)
		}
		res := run.drive(context.Background(), clones, Translate(opt), 0)
		if err := res.Err(); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		if res.Workers != gm {
			t.Fatalf("%s: workers=0 resolved to %d, want GOMAXPROCS(0)=%d", run.name, res.Workers, gm)
		}
	}
}

// TestRunBatchReferenceCancellation: the retained reference dispatcher
// honors the same cancellation contract as the stealing driver — the
// moment ctx.Done fires in the dispatch rendezvous it stops handing out
// indices (no per-index tail iteration), and the never-dispatched suffix
// is marked with the context error and a nil context.
func TestRunBatchReferenceCancellation(t *testing.T) {
	funcs := workload(t, 11, 16)
	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	pl := New(append([]Pass{{
		Name: "cancel-on-third",
		Run: func(*Context) error {
			if n++; n == 3 {
				cancel()
			}
			return nil
		},
	}}, OutOfSSA(core.Options{Strategy: core.Value, Linear: true, LiveCheck: true})...)...)

	res := RunBatchReference(cctx, funcs, pl, 1)
	for i := 0; i < 2; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("func %d failed: %v", i, res.Errs[i])
		}
	}
	if !errors.Is(res.Errs[2], context.Canceled) || res.Contexts[2] == nil {
		t.Fatalf("in-flight func: err=%v ctx=%v", res.Errs[2], res.Contexts[2])
	}
	for i := 3; i < len(funcs); i++ {
		if !errors.Is(res.Errs[i], context.Canceled) {
			t.Fatalf("func %d: want context.Canceled, got %v", i, res.Errs[i])
		}
		if res.Contexts[i] != nil {
			t.Fatalf("func %d was dispatched after cancellation", i)
		}
	}
	if n != 3 {
		t.Fatalf("ran %d functions, want 3", n)
	}
}
