package outofssa

import (
	"fmt"
	"strings"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
)

// The façade re-exports the engine's data types as aliases, so values
// returned here interoperate with the bench subpackage and so external
// consumers never need (and never may) import repro/internal/... .
type (
	// Func is one function of the textual IR, as produced by Parse or the
	// workload generator and mutated in place by translation. Its String
	// method renders the textual form Parse reads back.
	Func = ir.Func
	// Block is one basic block of a Func.
	Block = ir.Block
	// Instr is one instruction (or φ-function) of a Block.
	Instr = ir.Instr
	// Var is one variable of a Func; Reg pins it to an architectural
	// register (Section III-D of the paper).
	Var = ir.Var
	// VarID indexes a Func's Vars table.
	VarID = ir.VarID
	// Stats reports what one translation did and what it cost.
	Stats = core.Stats
	// Options is the full machinery configuration of the translator; most
	// callers use the functional options of New instead and never touch it
	// directly. WithOptions installs a complete value.
	Options = core.Options
	// Strategy selects the coalescing strategy (the paper's Figure 5
	// variants).
	Strategy = core.Strategy
	// Allocation is the result of the optional register-allocation stage
	// enabled by WithRegisters/WithRegisterPool.
	Allocation = regalloc.Result
	// Execution is the observable behaviour of one interpreted run: print
	// trace, return value, step count.
	Execution = interp.Result
	// PassError is the typed failure of one pass on one function; every
	// error the Translator returns for a failing function is (or wraps)
	// one, so errors.As-based routing works through TranslateAll and
	// BatchResult.Err.
	PassError = pipeline.PassError
	// Profile configures the synthetic workload generator.
	Profile = cfggen.Profile
)

// The coalescing strategies, re-exported.
const (
	// Intersect coalesces only classes with disjoint live ranges.
	Intersect = core.Intersect
	// SreedharI adds Sreedhar's exemption of the copy pair itself.
	SreedharI = core.SreedharI
	// Chaitin uses Chaitin's copy-aware conservative interference.
	Chaitin = core.Chaitin
	// Value uses the paper's value-based interference.
	Value = core.Value
	// SreedharIII virtualizes the copy insertion with intersection-based
	// interference (the paper's baseline). Selecting it implies
	// virtualization.
	SreedharIII = core.SreedharIII
	// ValueIS is Value plus the per-φ greedy independent-set search.
	ValueIS = core.ValueIS
	// Sharing is ValueIS plus the copy-sharing post-pass — the paper's
	// best-quality configuration and the façade default.
	Sharing = core.Sharing
)

// Strategies lists the paper's Figure 5 strategies in presentation order.
var Strategies = append([]Strategy(nil), core.Strategies...)

// flagName derives the canonical flag spelling of a strategy from its
// display name: lower case, roman numerals as digits, no separators —
// "Sreedhar III" becomes "sreedhar3", "Value+IS" becomes "valueis".
func flagName(s Strategy) string {
	n := strings.ToLower(s.String())
	n = strings.ReplaceAll(n, " iii", "3")
	n = strings.ReplaceAll(n, " i", "1")
	n = strings.ReplaceAll(n, "+", "")
	return strings.ReplaceAll(n, " ", "")
}

// StrategyNames returns the valid strategy names for ParseStrategy, in
// table order. Command-line tools derive their -strategy usage text from
// it, so the list can never drift from the Strategy table.
func StrategyNames() []string {
	names := make([]string, len(core.Strategies))
	for i, s := range core.Strategies {
		names[i] = flagName(s)
	}
	return names
}

// ParseStrategy resolves a strategy name (as listed by StrategyNames,
// case-insensitively) to its Strategy value.
func ParseStrategy(name string) (Strategy, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for _, s := range core.Strategies {
		if flagName(s) == want {
			return s, nil
		}
	}
	return 0, fmt.Errorf("outofssa: unknown strategy %q (valid: %s)", name, strings.Join(StrategyNames(), ", "))
}

// DefaultOptions is the paper's recommended configuration: the Sharing
// strategy over value-based interference with the linear congruence-class
// test and fast liveness checking ("Us I + Linear + InterCheck +
// LiveCheck", plus the sharing post-pass).
func DefaultOptions() Options {
	return Options{Strategy: Sharing, Linear: true, LiveCheck: true}
}

// Parse reads one function in the textual IR form (grammar documented in
// the README); Func.String is its inverse.
func Parse(src string) (*Func, error) { return ir.Parse(src) }

// ParseAll parses a stream of concatenated functions.
func ParseAll(src string) ([]*Func, error) { return ir.ParseAll(src) }

// MustParse is Parse for tests and examples; it panics on error.
func MustParse(src string) *Func { return ir.MustParse(src) }

// Clone deep-copies a function; translation mutates in place, so keep a
// clone when the original is still needed (e.g. as interpreter reference).
func Clone(f *Func) *Func { return ir.Clone(f) }

// Interpret executes f — SSA or translated — with the given parameters,
// stopping with an error after maxSteps instructions. It is the semantic
// equivalence oracle: a translation is correct iff Equivalent holds
// between the executions of the original and the translated function on
// every input.
func Interpret(f *Func, params []int64, maxSteps int) (*Execution, error) {
	return interp.Run(f, params, maxSteps)
}

// Equivalent reports whether two executions have the same observable
// behaviour (print trace and return value).
func Equivalent(a, b *Execution) bool { return interp.Equal(a, b) }

// DefaultProfile returns the workload generator profile used by the
// benchmark suite, seeded deterministically.
func DefaultProfile(name string, seed int64) Profile { return cfggen.DefaultProfile(name, seed) }

// Generate produces a deterministic batch of strict-SSA functions (with a
// generator-chosen fraction of copies folded, leaving non-conventional
// φ webs for the translator).
func Generate(p Profile) []*Func { return cfggen.Generate(p) }

// GenerateRaw produces the pre-SSA form of the same workload: multiple
// assignments, no φ-functions. Feed it to BuildSSA.
func GenerateRaw(p Profile) []*Func { return cfggen.GenerateRaw(p) }
