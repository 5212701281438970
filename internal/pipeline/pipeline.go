// Package pipeline is the pass architecture of the reproduction: a pass
// manager that runs uniform Pass values over one function, a shared
// invalidation-aware analysis cache (internal/analysis) each pass draws
// its substrates from, and a concurrent batch driver (RunBatch) that
// pushes many functions through the same pipeline on a worker pool.
//
// The paper's engineering point — out-of-SSA translation gets fast when
// expensive substrates are replaced by cheap on-demand machinery — shows
// up here as an architectural seam: dominance, def-use, liveness, the
// fast liveness checker, and the interference graph are computed lazily,
// memoized per function, invalidated by the IR's generation counters, and
// revalidated by passes that declare what they preserve. SSA construction,
// the four phases of the out-of-SSA translation, cleanup, and register
// allocation are all passes over that cache.
package pipeline

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ir"
	"repro/internal/regalloc"
)

// Failpoints. fpPass fires inside Apply's recover scope on every pass
// application; fpOutOfSSA fires at the entry of the out-of-SSA insert
// pass, before the memo is consulted.
var (
	fpPass     = faults.Register("pipeline.pass")
	fpOutOfSSA = faults.Register("pipeline.outofssa")
)

// PassError is the typed failure of one pass on one function. It is the
// error value every pipeline entry point (Apply, Pipeline.Run, RunBatch)
// returns for a pass failure, so callers — including the public outofssa
// façade — can route on it with errors.As and still reach the underlying
// cause through Unwrap/errors.Is.
type PassError struct {
	// Func is the name of the function the pass was running on.
	Func string
	// Pass is the Name of the failing pass.
	Pass string
	// Err is the underlying failure.
	Err error
}

func (e *PassError) Error() string {
	return fmt.Sprintf("pipeline: func %s: pass %s: %v", e.Func, e.Pass, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/errors.As.
func (e *PassError) Unwrap() error { return e.Err }

// Cache is the shared analysis cache (see internal/analysis).
type Cache = analysis.Cache

// Context carries the per-function state a pipeline run threads through
// its passes.
type Context struct {
	// Func is the function under transformation, mutated in place.
	Func *ir.Func
	// Cache memoizes the analyses; passes must request dominance, def-use,
	// liveness, the liveness checker, and the interference graph through
	// it rather than computing their own.
	Cache *Cache
	// Scratch, when non-nil, is the pooled per-worker working state the
	// passes run in: verification's definition table and the out-of-SSA
	// phases come from it. The pipeline runner (RunBatch's workers and
	// Pipeline.Run) installs one for the function's whole run, together
	// with its analysis storage in Cache, so every function a worker
	// processes reuses the same buffers; a nil Scratch, as in a context
	// stepped pass by pass with Apply, makes the translation draw one from
	// the core package pool for its own duration.
	Scratch *core.Scratch

	// Memo, when non-nil, is the shared translation memo the out-of-SSA
	// passes consult (see OutOfSSAWithMemo): the insert pass looks the
	// input's fingerprint up before mutating anything and, on a hit,
	// materializes the stored output instead of translating; the rewrite
	// pass stores fresh results. The store is safe to share across batch
	// workers and across requests.
	Memo *core.Memo
	// MemoChecked and MemoHit report what the memo did for this run: the
	// lookup happened, and it short-circuited the translation.
	MemoChecked, MemoHit bool
	memoKey              core.MemoKey
	memoInVars           int

	// Translation is the in-flight out-of-SSA translation, created by the
	// insert pass and consumed by the analyze/coalesce/rewrite passes.
	Translation *core.Translation
	// Stats is set by the out-of-SSA rewrite pass.
	Stats *core.Stats
	// Alloc is set by the register-allocation pass.
	Alloc *regalloc.Result
	// SSAOrig, set by the SSA-construction pass, maps each SSA variable to
	// the original variable it versions.
	SSAOrig []ir.VarID
	// CleanedBlocks counts blocks removed by the cleanup pass.
	CleanedBlocks int
}

// NewContext returns a fresh context for f with an empty cache.
func NewContext(f *ir.Func) *Context {
	return &Context{Func: f, Cache: analysis.NewCache(f)}
}

// Pass is one uniform pipeline step.
type Pass struct {
	// Name identifies the pass in errors and diagnostics.
	Name string
	// Run transforms ctx.Func (or only reads it).
	Run func(*Context) error
	// Preserves lists the analyses the pass keeps consistent by hand even
	// though it mutates the IR; the manager revalidates them in the cache
	// after the pass ran. Analyses of untouched layers (e.g. the dominator
	// tree across instruction-only rewriting) survive automatically via
	// the IR generation counters and need not be listed.
	Preserves []analysis.Kind
}

// Apply runs one pass on ctx and performs the cache bookkeeping the
// manager owes it. Exposed so tests (and tools) can single-step a
// pipeline while observing cache hit counts between passes. A failing
// pass — and a panicking one (malformed input tripping an internal
// invariant, e.g. non-SSA code reaching the def-use indexer) — comes back
// as a *PassError naming the function and the pass.
func Apply(ctx *Context, p Pass) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PassError{Func: ctx.Func.Name, Pass: p.Name, Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	// Inside the recover scope on purpose: an injected panic exercises the
	// same containment path a real pass panic does.
	if err := fpPass.Inject(); err != nil {
		return &PassError{Func: ctx.Func.Name, Pass: p.Name, Err: err}
	}
	if err := p.Run(ctx); err != nil {
		return &PassError{Func: ctx.Func.Name, Pass: p.Name, Err: err}
	}
	for _, k := range p.Preserves {
		ctx.Cache.Preserve(k)
	}
	return nil
}

// Pipeline is an ordered list of passes.
type Pipeline struct {
	passes []Pass
}

// New assembles a pipeline from the given passes.
func New(passes ...Pass) *Pipeline { return &Pipeline{passes: passes} }

// Run pushes f through the pipeline and returns the final context. It runs
// the function the way a batch worker does, inside one scratch drawn from
// the core pool for the call, so every pass builds its analyses in the
// scratch's storage. ctx cancellation is observed between passes: a
// canceled run returns the context's error and leaves the function in
// whatever state the completed passes produced. On every path the
// returned context holds nothing of the scratch.
func (p *Pipeline) Run(ctx context.Context, f *ir.Func) (*Context, error) {
	sc := core.GetScratch()
	defer core.PutScratch(sc)
	pctx := NewContext(f)
	return pctx, runIn(ctx, p, pctx, sc)
}

// RunContext pushes pctx.Func through the pipeline on an existing
// per-function context, checking ctx for cancellation before each pass.
func (p *Pipeline) RunContext(ctx context.Context, pctx *Context) error {
	for _, ps := range p.passes {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := Apply(pctx, ps); err != nil {
			return err
		}
	}
	return nil
}
