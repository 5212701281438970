// Package outofssa is the public façade of the reproduction of "Revisiting
// Out-of-SSA Translation for Correctness, Code Quality, and Efficiency"
// (Boissinot, Darte, Rastello, Dupont de Dinechin, Guillon — CGO 2009): the
// one supported way to drive the engine. Everything under internal/ is an
// implementation detail and may change without notice; this package — and
// its bench subpackage — is the stable surface.
//
// A Translator is built once from functional options and reused:
//
//	tr, err := outofssa.New(
//		outofssa.WithStrategy(outofssa.Sharing),
//		outofssa.WithWorkers(8),
//	)
//	f, err := outofssa.Parse(src)
//	res, err := tr.Translate(ctx, f)        // one function
//	batch, err := tr.TranslateAll(ctx, fns) // a whole method queue
//
// Translate and TranslateAll take a context.Context and honour
// cancellation: a batch stops dispatching new functions and an in-flight
// function stops at its next pass boundary. Per-function failures are
// typed — errors.As(err, &passErr) with *PassError yields the function
// name, the failing pass, and the cause — and TranslateAll combines them
// with errors.Join, so errors.Is/errors.As see through the batch error.
// Stream yields per-function Results as they complete, for consumers that
// overlap translation with downstream work.
package outofssa

import (
	"context"
	"errors"
	"fmt"
	"iter"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// Translator drives out-of-SSA translation with a fixed configuration.
// It is immutable after New and safe for concurrent use.
type Translator struct {
	opt     Options
	workers int
	pool    []string
	verify  bool
	memo    *core.Memo
}

// New builds a Translator. The zero configuration is DefaultOptions (the
// paper's recommended machinery, Sharing strategy) with input
// verification on, no register allocation, and GOMAXPROCS workers.
func New(opts ...Option) (*Translator, error) {
	t := &Translator{opt: DefaultOptions(), verify: true}
	for _, o := range opts {
		if o == nil {
			continue
		}
		if err := o(t); err != nil {
			return nil, err
		}
	}
	if err := t.opt.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// pipeline assembles the pass pipeline the Translator runs: optional SSA
// verification, the four out-of-SSA phases, and optional register
// allocation.
func (t *Translator) pipeline() *pipeline.Pipeline {
	var passes []pipeline.Pass
	if t.verify {
		passes = append(passes, pipeline.VerifySSA())
	}
	passes = append(passes, pipeline.OutOfSSAWithMemo(t.opt, t.memo)...)
	if len(t.pool) > 0 {
		passes = append(passes, pipeline.RegAlloc(t.pool))
	}
	return pipeline.New(passes...)
}

// Result is the outcome of translating one function.
type Result struct {
	// Func is the translated (φ-free) function — the same pointer that
	// was passed in, mutated in place. On failure it holds whatever state
	// the completed passes produced.
	Func *Func
	// Stats reports what the translation did; nil when the run failed
	// before the rewrite phase completed.
	Stats *Stats
	// Alloc is the register allocation, when enabled with
	// WithRegisters/WithRegisterPool; nil otherwise or on failure.
	Alloc *Allocation
	// Cache reports how the function's analysis cache behaved during the
	// run — how many analysis requests (dominance, def-use, liveness, the
	// fast liveness checker, the interference graph) were served from the
	// cache versus (re)computed. The serve layer aggregates these into its
	// /v1/stats hit rate.
	Cache CacheStats
	// MemoHit reports that the translation was served from the memo
	// attached with WithMemo, so no analysis ran. The memo counts its own
	// hits and misses (Memo.Stats).
	MemoHit bool
	// Err is the per-function failure: a *PassError for a failing pass,
	// or the context's error when the batch was canceled before this
	// function ran. Nil on success.
	Err error
}

// CacheStats counts analysis-cache requests over one or more translations:
// Hits were served from the per-function cache, Misses (re)computed. A
// translation-memo hit (Result.MemoHit) replaces the whole pipeline, so its
// run contributes no analysis hits or misses. The zero value is ready to
// use; Add folds another value in.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Add folds st into c.
func (c *CacheStats) Add(st CacheStats) {
	c.Hits += st.Hits
	c.Misses += st.Misses
}

// HitRate returns Hits / (Hits + Misses), or 0 when nothing was requested.
func (c CacheStats) HitRate() float64 {
	if c.Hits+c.Misses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Hits+c.Misses)
}

// resultOf folds a pipeline outcome into the public Result shape.
func resultOf(f *Func, pctx *pipeline.Context, err error) Result {
	r := Result{Func: f, Err: err}
	if pctx != nil {
		r.Stats = pctx.Stats
		r.Alloc = pctx.Alloc
		r.MemoHit = pctx.MemoHit
		if pctx.Cache != nil {
			for _, h := range pctx.Cache.Hits {
				r.Cache.Hits += h
			}
			for _, m := range pctx.Cache.Misses {
				r.Cache.Misses += m
			}
		}
	}
	return r
}

// Translate rewrites f, which must be in strict SSA form, into equivalent
// φ-free standard code, mutating it in place. The context is observed at
// pass boundaries. The returned Result is also populated on failure, with
// Result.Err set to the same (typed) error Translate returns.
func (t *Translator) Translate(ctx context.Context, f *Func) (Result, error) {
	pctx, err := t.pipeline().Run(ctx, f)
	return resultOf(f, pctx, err), err
}

// BatchResult aggregates one TranslateAll run.
type BatchResult struct {
	// Results is index-aligned with the input functions.
	Results []Result
	// Stats sums the statistics of every successful function, folded in
	// input order — identical for any worker count.
	Stats Stats
	// Workers is the worker-pool size actually used.
	Workers int
}

// Err joins the per-function failures in input order with errors.Join
// (nil when every function succeeded). errors.As locates the individual
// *PassError values; errors.Is(err, context.Canceled) detects a canceled
// batch.
func (r *BatchResult) Err() error {
	var errs []error
	for i := range r.Results {
		if e := r.Results[i].Err; e != nil {
			errs = append(errs, fmt.Errorf("func %d: %w", i, e))
		}
	}
	return errors.Join(errs...)
}

// TranslateAll pushes every function through its own run of the pipeline
// on a worker pool (see WithWorkers), mutating the functions in place.
// One failing function does not abort the batch; the returned error is
// BatchResult.Err — the errors.Join of the per-function failures — so a
// nil error means every function translated. Cancelling ctx stops the
// batch from dispatching further functions; the skipped ones carry the
// context's error in their Result.
func (t *Translator) TranslateAll(ctx context.Context, fns []*Func) (*BatchResult, error) {
	res := pipeline.RunBatch(ctx, fns, t.pipeline(), t.workers, nil)
	out := &BatchResult{
		Results: make([]Result, len(fns)),
		Stats:   res.Stats,
		Workers: res.Workers,
	}
	for i := range fns {
		out.Results[i] = resultOf(fns[i], res.Contexts[i], res.Errs[i])
	}
	return out, out.Err()
}

// Stream translates the functions on the worker pool like TranslateAll
// but yields each (index, Result) pair as the function completes, in
// completion order, so downstream work can overlap the batch. Breaking
// out of the loop cancels the remaining work; functions skipped by
// cancellation are never yielded.
func (t *Translator) Stream(ctx context.Context, fns []*Func) iter.Seq2[int, Result] {
	pl := t.pipeline()
	return func(yield func(int, Result) bool) {
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		// The channel holds the whole batch, so the workers never wait on
		// the consumer, and an abandoned stream's remaining sends land in
		// the buffer while the canceled workers wind down.
		done := make(chan pipeline.Done, len(fns))
		go func() {
			defer close(done)
			pipeline.RunBatch(sctx, fns, pl, t.workers, done)
		}()
		for d := range done {
			if !yield(d.Index, resultOf(fns[d.Index], d.Context, d.Err)) {
				return
			}
		}
	}
}

// BuildSSA rewrites a pre-SSA function (multiple assignments, no φs — the
// GenerateRaw shape) into pruned strict SSA form: construction, optional
// copy folding with dead-code elimination (fold), verification, and
// loop-derived block frequencies. It is the front half of the pipeline
// the ssagen command exposes.
func BuildSSA(ctx context.Context, f *Func, fold bool) error {
	passes := []pipeline.Pass{pipeline.ConstructSSA()}
	if fold {
		passes = append(passes, pipeline.CopyProp())
	}
	passes = append(passes,
		pipeline.VerifySSA(),
		pipeline.Pass{
			Name: "install-frequencies",
			Run: func(pctx *pipeline.Context) error {
				cfggen.InstallFrequencies(pctx.Func, pctx.Cache.Dom())
				return nil
			},
		},
	)
	_, err := pipeline.New(passes...).Run(ctx, f)
	return err
}
