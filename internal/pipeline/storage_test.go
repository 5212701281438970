package pipeline

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/ssa"
)

// TestRunBatchStorageLifetime: workers rebuild the dominator tree, the
// def-use index and the liveness checker in their scratch's storage for
// every function they translate. On a corpus ordered large → small →
// large, so small functions run on arrays a large one left behind, the
// batch must produce the IR and per-affinity decisions of sequential
// translation in fresh memory. Afterwards every returned context's cache
// must describe its own function, not the last one its worker translated —
// also for translations that failed after coalescing and so never reached
// the rewrite phase that releases the scratch.
func TestRunBatchStorageLifetime(t *testing.T) {
	large := func(seed int64) []*ir.Func {
		p := cfggen.LargeTranslateProfile("life", seed, 0.4)
		p.Funcs = 1
		return cfggen.GenerateLarge(p)
	}
	var funcs []*ir.Func
	funcs = append(funcs, large(1)...)
	funcs = append(funcs, workload(t, 77, 6)...)
	funcs = append(funcs, large(2)...)
	funcs = append(funcs, workload(t, 78, 6)...)
	funcs = append(funcs, large(3)...)

	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
	want := make([]string, len(funcs))
	wantStatuses := make([][]coalesce.Status, len(funcs))
	for i, f := range funcs {
		g := ir.Clone(f)
		tr, err := core.NewTranslation(g, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetScratch(core.NewScratch())
		for _, phase := range []func() error{tr.Insert, tr.Analyze, tr.Coalesce, tr.Rewrite} {
			if err := phase(); err != nil {
				t.Fatal(err)
			}
		}
		want[i] = g.String()
		wantStatuses[i] = tr.CoalesceResult().Statuses
	}

	// Every third function fails between coalescing and rewriting.
	errInjected := errors.New("injected failure")
	failing := map[*ir.Func]bool{}
	passes := OutOfSSA(opt)
	pl := New(VerifySSA(), passes[0], passes[1], passes[2], Pass{
		Name: "fail-some",
		Run: func(ctx *Context) error {
			if failing[ctx.Func] {
				return errInjected
			}
			return nil
		},
	}, passes[3])

	for _, workers := range []int{1, 2} {
		clones := make([]*ir.Func, len(funcs))
		for i, f := range funcs {
			clones[i] = ir.Clone(f)
			if i%3 == 1 {
				failing[clones[i]] = true
			}
		}
		res := RunBatch(context.Background(), clones, pl, workers, nil)
		for i, g := range clones {
			pctx := res.Contexts[i]
			if failing[g] {
				if !errors.Is(res.Errs[i], errInjected) {
					t.Fatalf("workers=%d func %d: err %v, want the injected failure", workers, i, res.Errs[i])
				}
				checkDom(t, pctx)
				checkDefUse(t, pctx)
				checkLiveCheck(t, pctx)
				continue
			}
			if res.Errs[i] != nil {
				t.Fatalf("workers=%d func %d: %v", workers, i, res.Errs[i])
			}
			if g.String() != want[i] {
				t.Fatalf("workers=%d func %d: batch IR differs from fresh-allocation translation:\n--- want\n%s--- got\n%s",
					workers, i, want[i], g)
			}
			if got := statuses(pctx); !slices.Equal(got, wantStatuses[i]) {
				t.Fatalf("workers=%d func %d: statuses %v, want %v", workers, i, got, wantStatuses[i])
			}
			checkDom(t, pctx)
		}
	}
}

// defineTwice returns a clone of f whose entry block defines its first
// variable a second time, so verification rejects it.
func defineTwice(f *ir.Func) *ir.Func {
	g := ir.Clone(f)
	entry := g.Entry()
	v := entry.Instrs[0].Defs[0]
	ir.InsertBefore(entry, len(entry.Instrs)-1, &ir.Instr{Op: ir.OpCopy, Defs: []ir.VarID{v}, Uses: []ir.VarID{v}})
	return g
}

// TestRunBatchStorageWindow: the worker's analysis storage is installed
// before a function's first pass and detached after its last, whatever the
// run's outcome. The corpus interleaves large and small functions with
// functions verification rejects (a variable defined twice), which leave a
// dominator tree in the storage, and with functions that fail between
// coalescing and rewriting, which leave the dominator tree, the def-use
// index and the liveness checker there. Some functions repeat at the end,
// so that with a shared memo the second copy is a memo hit. After the
// batch every context's cache must describe its own function: the
// dominator tree for every context, and the def-use index and the liveness
// checker too for the functions still in SSA form.
func TestRunBatchStorageWindow(t *testing.T) {
	large := func(seed int64, scale float64) *ir.Func {
		p := cfggen.LargeTranslateProfile("window", seed, scale)
		p.Funcs = 1
		return cfggen.GenerateLarge(p)[0]
	}
	small := workload(t, 91, 8)
	funcs := []*ir.Func{
		large(11, 0.4), small[0], defineTwice(small[1]), small[2],
		defineTwice(large(12, 0.3)), small[3], large(13, 0.2), small[4],
		defineTwice(small[5]), large(14, 0.4), small[6], small[7], large(15, 0.3),
	}
	failing := map[int]bool{3: true, 9: true, 11: true} // fail before the rewrite
	original := len(funcs)
	for _, i := range []int{0, 1, 6, 7, 12} {
		funcs = append(funcs, funcs[i])
	}

	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
	want := make([]string, len(funcs))
	for i, f := range funcs {
		if ssa.VerifyIn(f, dom.Build(f), nil) != nil {
			continue // verification must reject it
		}
		g := ir.Clone(f)
		if _, err := core.TranslateInto(g, opt, core.NewScratch()); err != nil {
			t.Fatalf("func %d: %v", i, err)
		}
		want[i] = g.String()
	}

	errInjected := errors.New("injected failure")
	for _, workers := range []int{1, 2} {
		clones := make([]*ir.Func, len(funcs))
		fail := map[*ir.Func]bool{}
		for i, f := range funcs {
			clones[i] = ir.Clone(f)
			fail[clones[i]] = failing[i]
		}
		passes := OutOfSSAWithMemo(opt, core.NewMemo(0, 0))
		pl := New(VerifySSA(), passes[0], passes[1], passes[2], Pass{
			Name: "fail-some",
			Run: func(ctx *Context) error {
				if fail[ctx.Func] {
					return errInjected
				}
				return nil
			},
		}, passes[3])
		res := RunBatch(context.Background(), clones, pl, workers, nil)
		for i, g := range clones {
			pctx := res.Contexts[i]
			var pe *PassError
			switch {
			case want[i] == "":
				if !errors.As(res.Errs[i], &pe) || pe.Pass != "verify-ssa" {
					t.Fatalf("workers=%d func %d: err %v, want a verify-ssa failure", workers, i, res.Errs[i])
				}
			case failing[i]:
				if !errors.Is(res.Errs[i], errInjected) {
					t.Fatalf("workers=%d func %d: err %v, want the injected failure", workers, i, res.Errs[i])
				}
				checkDefUse(t, pctx)
				checkLiveCheck(t, pctx)
			default:
				if res.Errs[i] != nil {
					t.Fatalf("workers=%d func %d: %v", workers, i, res.Errs[i])
				}
				if workers == 1 && pctx.MemoHit != (i >= original) {
					t.Fatalf("workers=%d func %d: memo hit %v, want %v", workers, i, pctx.MemoHit, i >= original)
				}
				if g.String() != want[i] {
					t.Fatalf("workers=%d func %d: batch IR differs from a fresh-scratch translation:\n--- want\n%s--- got\n%s",
						workers, i, want[i], g)
				}
			}
			checkDom(t, pctx)
		}
	}
}

// checkDom asserts that the context's cached dominator tree is its own
// function's.
func checkDom(t *testing.T, pctx *Context) {
	t.Helper()
	f := pctx.Func
	got, want := pctx.Cache.Dom(), dom.Build(f)
	if got.Func() != f {
		t.Fatalf("%s: cached dominator tree belongs to %s", f.Name, got.Func().Name)
	}
	for b := range f.Blocks {
		if got.IDom(b) != want.IDom(b) {
			t.Fatalf("%s: cached idom(%s) = %d, want %d", f.Name, f.Blocks[b].Name, got.IDom(b), want.IDom(b))
		}
	}
}

// checkDefUse asserts that the context's cached def-use index is its own
// function's.
func checkDefUse(t *testing.T, pctx *Context) {
	t.Helper()
	f := pctx.Func
	got, want := pctx.Cache.DefUse(), ir.NewDefUse(f)
	if got.Func() != f {
		t.Fatalf("%s: cached def-use index belongs to %s", f.Name, got.Func().Name)
	}
	for v := range f.Vars {
		vid := ir.VarID(v)
		if got.DefBlock(vid) != want.DefBlock(vid) || got.DefInstr(vid) != want.DefInstr(vid) ||
			!slices.Equal(got.Uses(vid), want.Uses(vid)) {
			t.Fatalf("%s: cached def-use entry of %s differs from a fresh index", f.Name, f.VarName(vid))
		}
	}
}

// checkLiveCheck asserts that the context's cached liveness checker
// answers like one built fresh for its function.
func checkLiveCheck(t *testing.T, pctx *Context) {
	t.Helper()
	f := pctx.Func
	got, want := pctx.Cache.LiveCheck(), livecheck.New(f, dom.Build(f), ir.NewDefUse(f))
	for b := range f.Blocks {
		for v := range f.Vars {
			vid := ir.VarID(v)
			if got.LiveInBlock(vid, b) != want.LiveInBlock(vid, b) || got.LiveOutBlock(vid, b) != want.LiveOutBlock(vid, b) {
				t.Fatalf("%s: cached checker disagrees with a fresh one on %s at %s", f.Name, f.VarName(vid), f.Blocks[b].Name)
			}
		}
	}
}
