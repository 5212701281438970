package pipeline

import (
	"context"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

// memoDiffOpts are the two option sets the memo tests translate under:
// the paper's recommended configuration and the virtualized Sreedhar III
// baseline (exercising the def-use-preserving coalescer under the memo).
var memoDiffOpts = []core.Options{
	{Strategy: core.Sharing, Linear: true, LiveCheck: true},
	{Strategy: core.SreedharIII, Virtualize: true},
}

// TestMemoHitMatchesPlainPipeline: translating a structural duplicate
// through a warm memo must yield the same stats (modulo phase nanos), the
// same coalescing statuses, and observably equivalent code as the plain
// pipeline — the differential contract of every memo hit.
func TestMemoHitMatchesPlainPipeline(t *testing.T) {
	p := cfggen.DefaultProfile("memopipe", 23)
	p.Funcs = 6
	corpus := cfggen.Generate(p)

	for _, opt := range memoDiffOpts {
		memo := core.NewMemo(0, 0)
		warm := New(OutOfSSAWithMemo(opt, memo)...)
		plain := New(OutOfSSA(opt)...)

		for _, tmpl := range corpus {
			// Warm the memo with one translation of the template...
			seed := ir.Clone(tmpl)
			sctx, err := warm.Run(context.Background(), seed)
			if err != nil {
				t.Fatal(err)
			}
			if sctx.MemoHit {
				t.Fatalf("%s: first translation hit a fresh memo", tmpl.Name)
			}

			// ...then push a renamed duplicate through both pipelines.
			dup := ir.Clone(tmpl)
			for id := range dup.Vars {
				dup.Vars[id].Name = dup.VarName(ir.VarID(id)) + "_x"
			}
			ref := ir.Clone(tmpl)

			dctx, err := warm.Run(context.Background(), dup)
			if err != nil {
				t.Fatal(err)
			}
			rctx, err := plain.Run(context.Background(), ref)
			if err != nil {
				t.Fatal(err)
			}
			if !dctx.MemoHit || !dctx.MemoChecked {
				t.Fatalf("%s: renamed duplicate missed the warm memo", tmpl.Name)
			}

			if zeroNanos(*dctx.Stats) != zeroNanos(*rctx.Stats) {
				t.Fatalf("%s: memoized stats differ from plain run:\n%+v\nvs\n%+v",
					tmpl.Name, zeroNanos(*dctx.Stats), zeroNanos(*rctx.Stats))
			}
			want := rctx.Translation.CoalesceResult().Statuses
			got := memo.Lookup(core.MemoKeyFor(ir.Clone(tmpl), opt)).Statuses()
			if len(got) != len(want) {
				t.Fatalf("%s: %d memoized statuses, plain run has %d", tmpl.Name, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: status %d is %v, plain run says %v", tmpl.Name, i, got[i], want[i])
				}
			}
			for _, params := range [][]int64{{0, 0}, {1, 7}, {13, 5}} {
				a, errA := interp.Run(dup, params, 1<<20)
				b, errB := interp.Run(ref, params, 1<<20)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("%s: interp errors diverge: %v vs %v", tmpl.Name, errA, errB)
				}
				if errA == nil && !interp.Equal(a, b) {
					t.Fatalf("%s: memoized code behaves differently on %v", tmpl.Name, params)
				}
			}
		}
	}
}

// TestMemoSharedAcrossBatchWorkers: a near-duplicate corpus pushed through
// RunBatch with a shared memo must translate every function correctly at
// any worker count, and the second pass over the same corpus must be all
// hits that skip translation entirely. Run under -race this is also the
// concurrency check on the memo.
func TestMemoSharedAcrossBatchWorkers(t *testing.T) {
	corpus := cfggen.GenerateNearDuplicates(cfggen.NearDuplicateProfile{
		Base:     cfggen.DefaultProfile("memobatch", 31),
		Clones:   3,
		EditSeed: 32,
	})
	opt := memoDiffOpts[0]

	for _, workers := range []int{1, 4} {
		memo := core.NewMemo(0, 0)
		p := New(OutOfSSAWithMemo(opt, memo)...)

		run := func() *BatchResult {
			funcs := make([]*ir.Func, len(corpus))
			for i, f := range corpus {
				funcs[i] = ir.Clone(f)
			}
			res := RunBatch(context.Background(), funcs, p, workers)
			for i, err := range res.Errs {
				if err != nil {
					t.Fatalf("workers=%d func %s: %v", workers, corpus[i].Name, err)
				}
			}
			return res
		}

		cold := run()
		warm := run()

		// The batch aggregate is scheduling-independent, so cold and warm
		// totals must agree exactly — memoization must not perturb stats.
		if zeroNanos(cold.Stats) != zeroNanos(warm.Stats) {
			t.Fatalf("workers=%d: warm aggregate differs from cold:\n%+v\nvs\n%+v",
				workers, zeroNanos(cold.Stats), zeroNanos(warm.Stats))
		}
		// A hit materializes the stored output before any translation
		// exists, so no analysis runs: no Translation, no cache miss.
		for i, ctx := range warm.Contexts {
			if !ctx.MemoHit {
				t.Fatalf("workers=%d: %s missed on the second pass", workers, corpus[i].Name)
			}
			if ctx.Translation != nil || ctx.Cache.Misses != ([analysis.NumKinds]uint64{}) {
				t.Fatalf("workers=%d: %s hit the memo but still translated (analysis misses %v)",
					workers, corpus[i].Name, ctx.Cache.Misses)
			}
		}
	}
}
