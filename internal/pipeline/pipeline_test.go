package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
)

// workload generates a deterministic batch of SSA functions.
func workload(t *testing.T, seed int64, n int) []*ir.Func {
	t.Helper()
	p := cfggen.DefaultProfile("pipe", seed)
	p.Funcs = n
	return cfggen.Generate(p)
}

func zeroNanos(st core.Stats) core.Stats {
	st.InsertNanos, st.AnalyzeNanos, st.CoalesceNanos, st.RewriteNanos = 0, 0, 0, 0
	return st
}

// TestPipelineMatchesTranslate: pushing a function through the decomposed
// four-pass pipeline produces exactly the code and statistics of the
// monolithic core.TranslateInto.
func TestPipelineMatchesTranslate(t *testing.T) {
	opts := []core.Options{
		{Strategy: core.Value, Linear: true, LiveCheck: true},
		{Strategy: core.Sharing, Linear: true, LiveCheck: true},
		{Strategy: core.SreedharIII, Virtualize: true, UseGraph: true, OrderedSets: true},
		{Strategy: core.Value, Virtualize: true},
		{Strategy: core.Chaitin, UseGraph: true},
	}
	for _, f := range workload(t, 7, 6) {
		for _, opt := range opts {
			a, b := ir.Clone(f), ir.Clone(f)
			want, err := core.TranslateInto(a, opt, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", f.Name, err)
			}
			ctx, err := Translate(opt).Run(context.Background(), b)
			if err != nil {
				t.Fatalf("%s: pipeline: %v", f.Name, err)
			}
			if a.String() != b.String() {
				t.Fatalf("%s opt %+v: pipeline output differs from core.TranslateInto:\n--- core\n%s--- pipeline\n%s",
					f.Name, opt, a, b)
			}
			if zeroNanos(*want) != zeroNanos(*ctx.Stats) {
				t.Fatalf("%s opt %+v: stats differ:\ncore:     %+v\npipeline: %+v",
					f.Name, opt, zeroNanos(*want), zeroNanos(*ctx.Stats))
			}
		}
	}
}

// TestRunBatchDeterministic is the batch-driver acceptance check: RunBatch
// with N workers produces byte-identical translated IR and an identical
// aggregate core.Stats to a sequential run over the same function set.
func TestRunBatchDeterministic(t *testing.T) {
	funcs := workload(t, 2026, 24)
	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}

	// Sequential reference through core.TranslateInto directly.
	seq := make([]*ir.Func, len(funcs))
	var seqStats core.Stats
	for i, f := range funcs {
		seq[i] = ir.Clone(f)
		st, err := core.TranslateInto(seq[i], opt, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seqStats.Accumulate(st)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		clones := make([]*ir.Func, len(funcs))
		for i, f := range funcs {
			clones[i] = ir.Clone(f)
		}
		res := RunBatch(context.Background(), clones, Translate(opt), workers, nil)
		if err := res.Err(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range clones {
			if got, want := clones[i].String(), seq[i].String(); got != want {
				t.Fatalf("workers=%d func %d: IR differs from sequential run:\n--- sequential\n%s--- batch\n%s",
					workers, i, want, got)
			}
		}
		if zeroNanos(res.Stats) != zeroNanos(seqStats) {
			t.Fatalf("workers=%d: aggregate stats differ:\nsequential: %+v\nbatch:      %+v",
				workers, zeroNanos(seqStats), zeroNanos(res.Stats))
		}
	}
}

// hitDelta snapshots cache counters around one pass.
type hitDelta struct {
	hits, misses [analysis.NumKinds]uint64
}

func step(t *testing.T, ctx *Context, p Pass) hitDelta {
	t.Helper()
	var before hitDelta
	before.hits, before.misses = ctx.Cache.Hits, ctx.Cache.Misses
	if err := Apply(ctx, p); err != nil {
		t.Fatalf("pass %s: %v", p.Name, err)
	}
	var d hitDelta
	for k := range d.hits {
		d.hits[k] = ctx.Cache.Hits[k] - before.hits[k]
		d.misses[k] = ctx.Cache.Misses[k] - before.misses[k]
	}
	return d
}

// phiDiamond is an SSA function whose pre-passes split no edges, so the
// dominator tree computed before copy insertion stays valid throughout.
const phiDiamond = `
func cachetest {
entry:
  x = param 0
  zero = const 0
  c = cmplt x zero
  br c then else
then:
  one = const 1
  a = add x one
  jump join
else:
  two = const 2
  b = add x two
  c2 = copy b
  jump join
join:
  y = phi then:a else:c2
  print y
  ret y
}
`

// TestCacheServesPasses is the acceptance check for the shared analysis
// cache: across the pipeline, dominance, liveness/livecheck, and def-use
// are each computed once and then served to later passes from the cache —
// at least three distinct passes receive cached analyses without
// recomputation.
// TestRunBatchPooledLivenessScratch: batch translation with dataflow
// liveness sets (no LiveCheck, so every worker computes liveness through
// the pooled worklist scratch, and the graph configuration recomputes it
// after copy insertion) must stay deterministic for any worker count —
// the concurrency stress that would expose scratch sharing between
// workers, especially under -race.
func TestRunBatchPooledLivenessScratch(t *testing.T) {
	funcs := workload(t, 4047, 24)
	// UseGraph + OrderedSets exercises both backends' scratch paths via
	// the interference graph's liveness pull.
	for _, opt := range []core.Options{
		{Strategy: core.Value, UseGraph: true},
		{Strategy: core.Value, UseGraph: true, OrderedSets: true},
	} {
		seq := make([]*ir.Func, len(funcs))
		for i, f := range funcs {
			seq[i] = ir.Clone(f)
			if _, err := core.TranslateInto(seq[i], opt, nil, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, workers := range []int{1, 8} {
			clones := make([]*ir.Func, len(funcs))
			for i, f := range funcs {
				clones[i] = ir.Clone(f)
			}
			res := RunBatch(context.Background(), clones, Translate(opt), workers, nil)
			if err := res.Err(); err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			for i := range clones {
				if clones[i].String() != seq[i].String() {
					t.Fatalf("ordered=%v workers=%d func %d: IR differs from sequential run",
						opt.OrderedSets, workers, i)
				}
			}
		}
	}
}

func TestCacheServesPasses(t *testing.T) {
	t.Run("livecheck-config", func(t *testing.T) {
		f, err := ir.Parse(phiDiamond)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(f)
		passes := append([]Pass{VerifySSA()},
			OutOfSSA(core.Options{Strategy: core.Value, Linear: true, LiveCheck: true})...)

		verify := step(t, ctx, passes[0])
		insert := step(t, ctx, passes[1])
		analyze := step(t, ctx, passes[2])
		coalesce := step(t, ctx, passes[3])
		rewrite := step(t, ctx, passes[4])
		_ = insert

		if verify.misses[analysis.Dom] != 1 {
			t.Fatalf("verify-ssa must compute dom once, got %d", verify.misses[analysis.Dom])
		}
		// Copy insertion only touched instructions: the analyze pass is
		// served the verify pass's dominator tree.
		if analyze.misses[analysis.Dom] != 0 || analyze.hits[analysis.Dom] == 0 {
			t.Fatalf("analyze recomputed dom: %+v", analyze)
		}
		if analyze.misses[analysis.LiveCheck] != 1 {
			t.Fatalf("analyze must compute livecheck once, got %d", analyze.misses[analysis.LiveCheck])
		}
		// Coalescing queries dominance, def-use, and the liveness checker —
		// all served from the cache.
		if coalesce.misses != (hitDelta{}.misses) {
			t.Fatalf("coalesce recomputed analyses: misses %v", coalesce.misses)
		}
		if coalesce.hits[analysis.Dom] == 0 || coalesce.hits[analysis.DefUse] == 0 || coalesce.hits[analysis.LiveCheck] == 0 {
			t.Fatalf("coalesce not served from cache: hits %v", coalesce.hits)
		}
		// The rewrite pass reuses the def-use index one more time.
		if rewrite.hits[analysis.DefUse] == 0 || rewrite.misses[analysis.DefUse] != 0 {
			t.Fatalf("rewrite not served def-use from cache: %+v", rewrite)
		}
		// Across the whole pipeline each analysis was computed exactly
		// once: dom (in verify-ssa, surviving copy insertion), def-use and
		// livecheck (in analyze, after copy insertion).
		if ctx.Cache.Misses[analysis.Dom] != 1 ||
			ctx.Cache.Misses[analysis.LiveCheck] != 1 ||
			ctx.Cache.Misses[analysis.DefUse] != 1 {
			t.Fatalf("unexpected recomputation: misses %v", ctx.Cache.Misses)
		}
	})

	t.Run("liveness-sets-config", func(t *testing.T) {
		f, err := ir.Parse(phiDiamond)
		if err != nil {
			t.Fatal(err)
		}
		ctx := NewContext(f)
		passes := OutOfSSA(core.Options{Strategy: core.Value, Virtualize: true})

		step(t, ctx, passes[0])
		analyze := step(t, ctx, passes[1])
		coalesce := step(t, ctx, passes[2])
		rewrite := step(t, ctx, passes[3])

		if analyze.misses[analysis.Liveness] != 1 {
			t.Fatalf("analyze must compute liveness once, got %d", analyze.misses[analysis.Liveness])
		}
		// The virtualized coalescer is served the same liveness sets.
		if coalesce.hits[analysis.Liveness] == 0 || coalesce.misses[analysis.Liveness] != 0 {
			t.Fatalf("coalesce not served liveness from cache: %+v", coalesce)
		}
		// It materializes copies but maintains def-use, so rewrite is still
		// served the cached index.
		if rewrite.hits[analysis.DefUse] == 0 || rewrite.misses[analysis.DefUse] != 0 {
			t.Fatalf("rewrite not served def-use from cache: %+v", rewrite)
		}
		if ctx.Cache.Misses[analysis.Liveness] != 1 {
			t.Fatalf("liveness recomputed: misses %v", ctx.Cache.Misses)
		}
	})
}

// TestFullPipelineRawToRegalloc drives the whole stack — SSA construction,
// copy folding, verification, out-of-SSA translation, register allocation
// — over raw (pre-SSA) functions through one pipeline, and checks
// observable equivalence end to end.
func TestFullPipelineRawToRegalloc(t *testing.T) {
	p := cfggen.DefaultProfile("rawpipe", 99)
	p.Funcs = 8
	pool := []string{"R0", "R1", "r2", "r3", "r4", "r5", "r6", "r7"}
	pl := New(append([]Pass{
		ConstructSSA(),
		CopyProp(),
		VerifySSA(),
	}, append(OutOfSSA(core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}),
		RegAlloc(pool),
	)...)...)

	inputs := [][]int64{{0, 0}, {4, 9}, {-3, 14}}
	for _, f := range cfggen.GenerateRaw(p) {
		orig := ir.Clone(f)
		ctx, err := pl.Run(context.Background(), f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if ctx.Stats == nil || ctx.Alloc == nil {
			t.Fatalf("%s: pipeline did not publish stats/allocation", f.Name)
		}
		for _, in := range inputs {
			want, err := interp.Run(orig, in, 500000)
			if err != nil {
				t.Fatal(err)
			}
			got, err := interp.Run(f, in, 500000)
			if err != nil {
				t.Fatal(err)
			}
			if !interp.Equal(want, got) {
				t.Fatalf("%s miscompiled on %v", f.Name, in)
			}
		}
	}
}

// TestRunBatchCollectsErrors: a failing function does not abort the batch;
// its error is reported at its index.
func TestRunBatchCollectsErrors(t *testing.T) {
	funcs := workload(t, 5, 3)
	// Sabotage the middle function: SreedharIII without Virtualize is
	// rejected by options validation at pipeline construction time, so
	// instead make a function that is not in SSA form (double definition).
	bad := ir.NewFunc("bad")
	b := bad.NewBlock("entry")
	v := bad.NewVar("x")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{v}, Aux: 1},
		{Op: ir.OpConst, Defs: []ir.VarID{v}, Aux: 2},
		{Op: ir.OpRet, Uses: []ir.VarID{v}},
	}
	all := []*ir.Func{funcs[0], bad, funcs[1]}
	opt := core.Options{Strategy: core.Value, Linear: true, LiveCheck: true}

	// NewDefUse panics on non-SSA input; the driver must turn that into a
	// per-function error, not a crash.
	res := RunBatch(context.Background(), all, Translate(opt), 2, nil)
	if res.Errs[0] != nil || res.Errs[2] != nil {
		t.Fatalf("healthy functions failed: %v / %v", res.Errs[0], res.Errs[2])
	}
	if res.Errs[1] == nil {
		t.Fatal("non-SSA function must fail")
	}
	if res.Err() == nil {
		t.Fatal("BatchResult.Err must surface the failure")
	}
}

// TestRunBatchCancellation: cancelling the context mid-batch stops the
// dispatcher. With one worker the order is deterministic: the functions
// processed before the cancel succeed, the in-flight one stops at its next
// pass boundary, and everything behind it is never dispatched.
func TestRunBatchCancellation(t *testing.T) {
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

	res := RunBatch(cctx, funcs, pl, 1, nil)
	for i := 0; i < 2; i++ {
		if res.Errs[i] != nil {
			t.Fatalf("func %d failed: %v", i, res.Errs[i])
		}
	}
	// The third function cancels during its own first pass and is cut off
	// at the next pass boundary.
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
	if !errors.Is(res.Err(), context.Canceled) {
		t.Fatalf("combined error hides the cancellation: %v", res.Err())
	}
	if got := len(funcs) - 3; n != 3 {
		t.Fatalf("ran %d functions, want 3 (skipped %d)", n, got)
	}
}

// TestRunBatchStreams: the done channel carries one Done per claimed
// function, equal to the function's entries in the BatchResult, at one
// worker and at four. After a mid-batch cancel it carries exactly the
// claimed functions (those with a context) and no skipped index.
func TestRunBatchStreams(t *testing.T) {
	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
	for _, workers := range []int{1, 4} {
		for _, cancelAt := range []int32{0, 5} {
			funcs := workload(t, 13, 12)
			cctx, cancel := context.WithCancel(context.Background())
			var started atomic.Int32
			pl := New(append([]Pass{{
				Name: "cancel-at",
				Run: func(*Context) error {
					if started.Add(1) == cancelAt {
						cancel()
					}
					return nil
				},
			}}, OutOfSSA(opt)...)...)
			done := make(chan Done, len(funcs))
			res := RunBatch(cctx, funcs, pl, workers, done)
			cancel()
			close(done)

			seen := make([]int, len(funcs))
			sent := 0
			for d := range done {
				sent++
				seen[d.Index]++
				if d.Context != res.Contexts[d.Index] || d.Err != res.Errs[d.Index] {
					t.Fatalf("workers=%d cancelAt=%d func %d: sent (%p, %v), result holds (%p, %v)",
						workers, cancelAt, d.Index, d.Context, d.Err, res.Contexts[d.Index], res.Errs[d.Index])
				}
				if cancelAt == 0 && (d.Err != nil || d.Context.Stats == nil) {
					t.Fatalf("workers=%d func %d sent err=%v stats=%v", workers, d.Index, d.Err, d.Context.Stats)
				}
			}
			claimed := 0
			for i, c := range seen {
				switch {
				case res.Contexts[i] != nil && c != 1:
					t.Fatalf("workers=%d cancelAt=%d: claimed func %d sent %d times", workers, cancelAt, i, c)
				case res.Contexts[i] == nil && c != 0:
					t.Fatalf("workers=%d cancelAt=%d: skipped func %d sent %d times", workers, cancelAt, i, c)
				}
				if res.Contexts[i] != nil {
					claimed++
				}
			}
			if sent != claimed {
				t.Fatalf("workers=%d cancelAt=%d: %d values sent for %d claimed functions", workers, cancelAt, sent, claimed)
			}
			if cancelAt == 0 && (claimed != len(funcs) || res.Err() != nil) {
				t.Fatalf("workers=%d: %d of %d claimed, err %v", workers, claimed, len(funcs), res.Err())
			}
			if cancelAt != 0 && claimed == len(funcs) {
				t.Fatalf("workers=%d: cancellation had no effect — every function was claimed", workers)
			}
		}
	}
}

// TestRunBatchDoneCapacity: a done channel without room for the whole
// batch is refused with a panic naming both numbers, before any function
// runs, so no worker can ever block on a send.
func TestRunBatchDoneCapacity(t *testing.T) {
	funcs := workload(t, 13, 3)
	before := funcs[0].String()
	for _, size := range []int{0, 2} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				want := fmt.Sprintf("holds %d values, batch has 3 functions", size)
				if !strings.Contains(msg, want) {
					t.Fatalf("cap %d: panic %q, want one containing %q", size, msg, want)
				}
			}()
			opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
			RunBatch(context.Background(), funcs, Translate(opt), 1, make(chan Done, size))
		}()
	}
	if funcs[0].String() != before {
		t.Fatal("RunBatch translated a function before refusing the done channel")
	}
}

// TestPassErrorTyped: a pass failure surfaces as a *PassError carrying the
// function and pass names, reachable through BatchResult.Err with
// errors.As.
func TestPassErrorTyped(t *testing.T) {
	bad := ir.NewFunc("badfunc")
	b := bad.NewBlock("entry")
	v := bad.NewVar("x")
	b.Instrs = []*ir.Instr{
		{Op: ir.OpConst, Defs: []ir.VarID{v}, Aux: 1},
		{Op: ir.OpConst, Defs: []ir.VarID{v}, Aux: 2},
		{Op: ir.OpRet, Uses: []ir.VarID{v}},
	}
	opt := core.Options{Strategy: core.Value, Linear: true, LiveCheck: true}
	res := RunBatch(context.Background(), []*ir.Func{bad}, Translate(opt), 1, nil)

	var pe *PassError
	if !errors.As(res.Err(), &pe) {
		t.Fatalf("no *PassError in %v", res.Err())
	}
	if pe.Func != "badfunc" || pe.Pass == "" || pe.Err == nil {
		t.Fatalf("PassError incomplete: %+v", pe)
	}
}
