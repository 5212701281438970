package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/ir"
)

// BatchResult aggregates one RunBatch run.
type BatchResult struct {
	// Stats sums the translation statistics of every successfully
	// processed function, folded in input order; the wall-clock fields are
	// excluded (see core.Stats.Accumulate), so the aggregate is identical
	// for any worker count.
	Stats core.Stats
	// Contexts holds the final per-function contexts, index-aligned with
	// the input; an entry whose pipeline failed still carries the partial
	// context, and an entry the batch never dispatched (cancellation) is
	// nil.
	Contexts []*Context
	// Errs is index-aligned with the input; nil entries succeeded. A pass
	// failure is a *PassError; a function skipped because the batch was
	// canceled carries the context's error.
	Errs []error
	// Workers is the worker count actually used.
	Workers int
}

// Err joins the per-function failures in input order with errors.Join
// (nil when all functions succeeded). Pass failures are *PassError values
// wrapped with their input index, so both errors.As(&passErr) and
// errors.Is(err, context.Canceled) see through the combined error.
func (r *BatchResult) Err() error {
	var errs []error
	for i, err := range r.Errs {
		if err != nil {
			errs = append(errs, fmt.Errorf("func %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// clampWorkers resolves the requested worker count: workers <= 0 selects
// runtime.GOMAXPROCS(0) — not NumCPU, so a capped scheduler (container
// quota, `go test -cpu`) is respected instead of oversubscribed — and the
// count is clamped to the batch size.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// RunBatch pushes every function through its own run of the pipeline on a
// pool of work-stealing workers, mutating the functions in place.
// workers <= 0 selects runtime.GOMAXPROCS(0). Every function gets a
// private context and analysis cache — that isolation is what makes the
// result deterministic: the translated IR and the aggregate statistics
// are bit-identical to a sequential run for any worker count and any
// steal schedule, because statistics are collected per index and folded
// in input order after the pool drains, keeping float accumulation
// independent of scheduling.
//
// Cancelling ctx stops the pool: a function already claimed by a worker
// stops at its next pass boundary with the context's error, and functions
// never claimed are marked with the context's error and a nil Context.
func RunBatch(ctx context.Context, funcs []*ir.Func, p *Pipeline, workers int) *BatchResult {
	return RunBatchFunc(ctx, funcs, p, workers, nil)
}

// RunBatchFunc is RunBatch with a streaming observer: report, when
// non-nil, is invoked once per claimed function as it completes, in
// completion order, with the input index, the per-function context, and
// its error. Calls are serialized (report needs no locking of its own)
// but their order depends on scheduling; functions skipped by
// cancellation are not reported. The calls run on a dedicated drainer
// goroutine fed by a full-batch buffered channel, so a slow observer
// back-pressures nothing — workers never serialize on reporting.
func RunBatchFunc(ctx context.Context, funcs []*ir.Func, p *Pipeline, workers int, report func(int, *Context, error)) *BatchResult {
	workers = clampWorkers(workers, len(funcs))
	res := &BatchResult{
		Contexts: make([]*Context, len(funcs)),
		Errs:     make([]error, len(funcs)),
		Workers:  workers,
	}
	if workers == 1 {
		runBatchSeq(ctx, funcs, p, res, report)
	} else {
		runBatchStealing(ctx, funcs, p, res, workers, report)
	}
	markSkipped(ctx, res)
	foldStats(res)
	return res
}

// runOne pushes funcs[i] through the pipeline inside the worker's scratch
// sc (see runIn).
func runOne(ctx context.Context, p *Pipeline, funcs []*ir.Func, res *BatchResult, i int, sc *core.Scratch) {
	pctx := NewContext(funcs[i])
	res.Contexts[i] = pctx
	res.Errs[i] = runIn(ctx, p, pctx, sc)
}

// runIn pushes pctx.Func through the pipeline on worker-owned working
// state, from the first pass to the last: sc is the worker's private
// core.Scratch, its analysis storage is where the function's cache builds
// the dominator tree, the def-use index and the liveness checker (so the
// verification pass's tree is built in the worker's arrays and the
// translation reuses it), its SSA tables serve verification and value
// numbering, and its liveness scratch serves every liveness
// (re)computation — no global sync.Pool traffic, and with it no
// cross-core contention, on the per-function path. Every attachment is
// detached before the context escapes to the caller, on every path
// (success, pass failure, memo hit, failed verification), so post-run use
// of a Context can never race a scratch now owned by someone else, nor
// read analyses the worker rebuilt for a later function.
func runIn(ctx context.Context, p *Pipeline, pctx *Context, sc *core.Scratch) error {
	pctx.Scratch = sc
	pctx.Cache.UseStorage(sc.AnalysisStorage())
	pctx.Cache.SetLivenessScratch(sc.LivenessScratch())
	err := runSafe(ctx, p, pctx)
	// A translation that failed before its rewrite phase still holds the
	// scratch. Detaching the storage makes the cache drop every analysis
	// built in it, so a later request rebuilds in fresh memory for its own
	// function.
	if pctx.Translation != nil {
		pctx.Translation.Release()
	}
	pctx.Scratch = nil
	pctx.Cache.UseStorage(nil)
	pctx.Cache.SetLivenessScratch(nil)
	return err
}

// runBatchSeq is the single-worker fast path: input order, no goroutines,
// report invoked inline (one worker cannot contend with itself). The
// scratch comes from the core pool — one Get/Put per batch, not per
// function — so a long-lived caller (the serve daemon) reuses warm
// buffers across requests instead of growing a fresh scratch each time.
func runBatchSeq(ctx context.Context, funcs []*ir.Func, p *Pipeline, res *BatchResult, report func(int, *Context, error)) {
	sc := core.GetScratch()
	defer core.PutScratch(sc)
	for i := range funcs {
		if ctx.Err() != nil {
			break
		}
		runOne(ctx, p, funcs, res, i, sc)
		if report != nil {
			report(i, res.Contexts[i], res.Errs[i])
		}
	}
}

// runBatchStealing is the multicore driver. The input index space is cut
// into contiguous shards, one per worker — dispatch is O(1) amortized per
// function (slice bookkeeping, no synchronized handoff). A worker drains
// its own deque from the head; when empty it steals the tail half of the
// remaining work from the busiest victim, so a straggler shard (one huge
// CFG near the end of the input) is flattened across the pool instead of
// idling everyone behind one worker.
func runBatchStealing(ctx context.Context, funcs []*ir.Func, p *Pipeline, res *BatchResult, workers int, report func(int, *Context, error)) {
	n := len(funcs)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	qs := make([]stealQueue, workers)
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		// Capacity-clamped: a steal-append on this queue reallocates
		// privately instead of growing into the next worker's shard.
		qs[w].seed(idx[lo:hi:hi])
	}

	// The streaming observer runs on its own drainer goroutine; the
	// channel holds the whole batch, so a worker's send never blocks.
	var reports chan int32
	var drain sync.WaitGroup
	if report != nil {
		reports = make(chan int32, n)
		drain.Add(1)
		go func() {
			defer drain.Done()
			for i := range reports {
				report(int(i), res.Contexts[i], res.Errs[i])
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(self int) {
			defer wg.Done()
			// Fully private working state for the life of the batch: one
			// pool round-trip per worker per batch (not per function), no
			// buffer ever shared with another core while the batch runs.
			// The congruence list pool and the liveness worklist scratch
			// ride inside (core.Scratch owns both), so the steady-state
			// translation path is contention-free — and because the scratch
			// returns to the core pool when the batch drains, a long-lived
			// server translating many small batches reuses the same warm
			// buffers across requests.
			sc := core.GetScratch()
			defer core.PutScratch(sc)
			var buf []int32
			q := &qs[self]
			for {
				if ctx.Err() != nil {
					return
				}
				i, ok := q.pop()
				if !ok {
					v := busiest(qs, self)
					if v < 0 {
						return
					}
					buf = qs[v].stealTail(buf[:0])
					if len(buf) == 0 {
						continue // victim drained under us; rescan
					}
					i = int(buf[0])
					if len(buf) > 1 {
						q.pushBack(buf[1:])
					}
				}
				runOne(ctx, p, funcs, res, i, sc)
				if reports != nil {
					reports <- int32(i)
				}
			}
		}(w)
	}
	wg.Wait()
	if reports != nil {
		close(reports)
		drain.Wait()
	}
}

// markSkipped marks the functions the driver never claimed with the
// cancellation cause (a claimed function always has a context, even when
// its pipeline failed).
func markSkipped(ctx context.Context, res *BatchResult) {
	err := ctx.Err()
	if err == nil {
		return
	}
	for i := range res.Errs {
		if res.Contexts[i] == nil && res.Errs[i] == nil {
			res.Errs[i] = err
		}
	}
}

// foldStats accumulates the per-function statistics in input order —
// the step that keeps the aggregate independent of scheduling.
func foldStats(res *BatchResult) {
	for i := range res.Contexts {
		if res.Errs[i] == nil && res.Contexts[i] != nil && res.Contexts[i].Stats != nil {
			res.Stats.Accumulate(res.Contexts[i].Stats)
		}
	}
}

// runSafe runs the pipeline on pctx; pass failures and pass panics arrive
// as *PassError from Apply, and a panic outside any pass is still caught
// here so one bad function cannot take down a whole batch.
func runSafe(ctx context.Context, p *Pipeline, pctx *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: panic: %v", r)
		}
	}()
	return p.RunContext(ctx, pctx)
}
