package pipeline

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/regalloc"
	"repro/internal/ssa"
)

// ConstructSSA returns the SSA-construction pass: the pre-SSA function is
// rewritten into pruned strict SSA form with deterministically ordered
// φ-functions. Dominance and (pre-SSA) liveness are served by the cache;
// construction leaves the CFG untouched, so the dominator tree survives
// into the following passes.
func ConstructSSA() Pass {
	return Pass{
		Name: "construct-ssa",
		Run: func(ctx *Context) error {
			dt := ctx.Cache.Dom()
			live := ctx.Cache.Liveness(liveness.Bitsets)
			ctx.SSAOrig = ssa.ConstructWith(ctx.Func, dt, live)
			ssa.SortPhisByDef(ctx.Func)
			return nil
		},
	}
}

// CopyProp returns the SSA copy-folding pass (followed by dead-code
// elimination) — the optimization that breaks conventionality and gives
// the out-of-SSA translator something to do.
func CopyProp() Pass {
	return Pass{
		Name: "copy-propagation",
		Run: func(ctx *Context) error {
			ssa.PropagateCopies(ctx.Func, ctx.Cache.Dom())
			ssa.EliminateDeadCode(ctx.Func)
			return nil
		},
	}
}

// VerifySSA returns a read-only pass that checks strict SSA form; it warms
// the cached dominator tree for the passes behind it. Its definition table
// lives in the context's scratch when one is installed.
func VerifySSA() Pass {
	return Pass{
		Name: "verify-ssa",
		Run: func(ctx *Context) error {
			var sc *ssa.Scratch
			if ctx.Scratch != nil {
				sc = ctx.Scratch.SSAScratch()
			}
			return ssa.VerifyIn(ctx.Func, ctx.Cache.Dom(), sc)
		},
	}
}

// OutOfSSA returns the four paper phases of the out-of-SSA translation as
// individual passes sharing one core.Translation: copy insertion, the
// interference analyses, coalescing, and the CSSA-leaving rewrite. The
// final pass publishes the translation statistics on the context.
func OutOfSSA(opt core.Options) []Pass { return OutOfSSAWithMemo(opt, nil) }

// OutOfSSAWithMemo is OutOfSSA backed by a shared translation memo. The
// insert pass fingerprints the still-unmutated input and looks it up; on a
// hit the stored output is materialized (zero-alloc CloneInto plus the
// input's variable identities) and the remaining phases no-op. On a miss
// the rewrite pass stores the finished translation. A nil memo degrades to
// the plain pipeline.
func OutOfSSAWithMemo(opt core.Options, memo *core.Memo) []Pass {
	return []Pass{
		{
			Name: "out-of-ssa-insert",
			Run: func(ctx *Context) error {
				if err := fpOutOfSSA.Inject(); err != nil {
					return err
				}
				if memo != nil {
					ctx.Memo = memo
					ctx.MemoChecked = true
					ctx.memoKey = core.MemoKeyFor(ctx.Func, opt)
					ctx.memoInVars = len(ctx.Func.Vars)
					if e := memo.Lookup(ctx.memoKey); e != nil {
						var buf []ir.Var
						if ctx.Scratch != nil {
							buf = ctx.Scratch.MemoVarBuf()
						}
						st, buf := e.Materialize(ctx.Func, buf)
						if ctx.Scratch != nil {
							ctx.Scratch.SetMemoVarBuf(buf)
						}
						ctx.MemoHit = true
						ctx.Stats = st
						return nil
					}
				}
				t, err := core.NewTranslation(ctx.Func, opt, ctx.Cache)
				if err != nil {
					return err
				}
				if ctx.Scratch != nil {
					t.SetScratch(ctx.Scratch)
				}
				ctx.Translation = t
				return t.Insert()
			},
		},
		{
			Name: "out-of-ssa-analyze",
			Run: func(ctx *Context) error {
				if ctx.MemoHit {
					return nil
				}
				return ctx.Translation.Analyze()
			},
		},
		{
			Name: "out-of-ssa-coalesce",
			Run: func(ctx *Context) error {
				if ctx.MemoHit {
					return nil
				}
				return ctx.Translation.Coalesce()
			},
			// The virtualized coalescer materializes copies but maintains
			// the def-use index as it goes (the phase also revalidates it
			// itself, for callers driving core.Translation directly).
			Preserves: []analysis.Kind{analysis.DefUse},
		},
		{
			Name: "out-of-ssa-rewrite",
			Run: func(ctx *Context) error {
				if ctx.MemoHit {
					return nil
				}
				if err := ctx.Translation.Rewrite(); err != nil {
					return err
				}
				ctx.Stats = ctx.Translation.Stats
				if memo != nil {
					memo.Store(ctx.memoKey, ctx.Func, ctx.memoInVars, ctx.Stats, ctx.Translation.CoalesceResult().Statuses)
				}
				return nil
			},
		},
	}
}

// Translate assembles the standard out-of-SSA pipeline for opt.
func Translate(opt core.Options) *Pipeline { return New(OutOfSSA(opt)...) }

// Cleanup returns the jump-block folding pass for φ-free code.
func Cleanup() Pass {
	return Pass{
		Name: "cleanup-jump-blocks",
		Run: func(ctx *Context) error {
			ctx.CleanedBlocks += ir.CleanupJumpBlocks(ctx.Func)
			return nil
		},
	}
}

// RegAlloc returns the linear-scan register-allocation pass over φ-free
// code, with the given register pool. One cached liveness computation is
// shared by interval construction and the independent verifier.
func RegAlloc(pool []string) Pass {
	return Pass{
		Name: "regalloc",
		Run: func(ctx *Context) error {
			live := ctx.Cache.Liveness(liveness.Bitsets)
			res, err := regalloc.AllocateWith(ctx.Func, pool, live)
			if err != nil {
				return err
			}
			if err := regalloc.VerifyWith(ctx.Func, res, ctx.Cache.Liveness(liveness.Bitsets)); err != nil {
				return fmt.Errorf("allocation invalid: %w", err)
			}
			ctx.Alloc = res
			return nil
		},
	}
}
