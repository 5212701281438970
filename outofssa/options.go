package outofssa

import (
	"fmt"
)

// Option configures a Translator at construction time. Options apply in
// order, last one wins; New validates the final combination.
type Option func(*Translator) error

// WithStrategy selects the coalescing strategy. Selecting SreedharIII
// turns virtualized copy insertion on. Like every option this is
// last-wins: a later conflicting option is honoured, and New rejects the
// combination, or an undefined strategy, if it is invalid.
func WithStrategy(s Strategy) Option {
	return func(t *Translator) error {
		t.opt.Strategy = s
		if s == SreedharIII {
			t.opt.Virtualize = true
		}
		return nil
	}
}

// WithOptions replaces the whole machinery configuration — the escape
// hatch for callers that sweep configurations (benchmarks, the figure
// harness). Worker count, register pool, verification, and the memo are
// Translator-level settings and are not touched.
func WithOptions(o Options) Option {
	return func(t *Translator) error {
		t.opt = o
		return nil
	}
}

// WithVirtualization emulates the φ copies and materializes only the ones
// that fail to coalesce (Method III style) instead of inserting all
// copies up front.
func WithVirtualization(on bool) Option {
	return func(t *Translator) error {
		t.opt.Virtualize = on
		return nil
	}
}

// WithInterferenceGraph answers pair queries from a precomputed bit
// matrix instead of direct checks. The graph construction needs liveness
// sets, so enabling it turns fast liveness checking off.
func WithInterferenceGraph(on bool) Option {
	return func(t *Translator) error {
		t.opt.UseGraph = on
		if on {
			t.opt.LiveCheck = false
		}
		return nil
	}
}

// WithFastLiveness replaces dataflow liveness sets by the CFG-only fast
// liveness checker (Section IV-A). Enabling it turns the interference
// graph and the ordered-set representation off — both need liveness sets.
func WithFastLiveness(on bool) Option {
	return func(t *Translator) error {
		t.opt.LiveCheck = on
		if on {
			t.opt.UseGraph = false
			t.opt.OrderedSets = false
		}
		return nil
	}
}

// WithLinearClassTest selects the linear-time congruence-class
// interference test (Section IV-B) over the quadratic all-pairs test.
func WithLinearClassTest(on bool) Option {
	return func(t *Translator) error {
		t.opt.Linear = on
		return nil
	}
}

// WithOrderedSets stores liveness sets as sorted slices instead of bit
// vectors (the representation measured by the paper's Figure 7). Enabling
// it turns fast liveness checking off.
func WithOrderedSets(on bool) Option {
	return func(t *Translator) error {
		t.opt.OrderedSets = on
		if on {
			t.opt.LiveCheck = false
		}
		return nil
	}
}

// WithCriticalEdgeSplitting splits every critical edge before
// translation, trading extra blocks for coalescing freedom.
func WithCriticalEdgeSplitting(on bool) Option {
	return func(t *Translator) error {
		t.opt.SplitCriticalEdges = on
		return nil
	}
}

// WithParallelCopies keeps the remaining parallel copies in the output
// instead of sequentializing them — for consumers that inspect or lower
// the parallel form themselves.
func WithParallelCopies(on bool) Option {
	return func(t *Translator) error {
		t.opt.KeepParallelCopies = on
		return nil
	}
}

// WithVerify toggles strict-SSA verification of the input before
// translation (on by default). The post-translation IR check always runs.
func WithVerify(on bool) Option {
	return func(t *Translator) error {
		t.verify = on
		return nil
	}
}

// WithWorkers sets the worker-pool size TranslateAll and Stream use;
// n <= 0 selects runtime.GOMAXPROCS(0). Results are identical for any
// worker count — only wall-clock changes.
func WithWorkers(n int) Option {
	return func(t *Translator) error {
		t.workers = n
		return nil
	}
}

// maxRegisters bounds WithRegisters' k: far above any register file, and
// low enough that a k from an untrusted request cannot make the pool and
// the allocator's per-register map take much memory.
const maxRegisters = 1024

// WithRegisters enables the register-allocation stage with a pool of k
// general-purpose registers named r0..r(k-1). k == 0 disables the stage;
// k must lie in [0, 1024].
func WithRegisters(k int) Option {
	return func(t *Translator) error {
		if k < 0 || k > maxRegisters {
			return fmt.Errorf("outofssa: register count %d out of range [0, %d]", k, maxRegisters)
		}
		t.pool = nil
		for i := 0; i < k; i++ {
			t.pool = append(t.pool, fmt.Sprintf("r%d", i))
		}
		return nil
	}
}

// WithRegisterPool enables the register-allocation stage with explicitly
// named registers (matching the Reg pins of constrained variables).
func WithRegisterPool(regs ...string) Option {
	return func(t *Translator) error {
		t.pool = append([]string(nil), regs...)
		return nil
	}
}
