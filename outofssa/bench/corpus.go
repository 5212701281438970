package bench

import (
	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
)

// The three large-CFG corpora below stress one engine layer each:
// liveness (deep loop nests, wide joins, dense φ pressure), the
// coalescing query path (φ/copy-dense), and the whole translation end to
// end. Each is a pure function of its scale. The root testing.B
// benchmarks time them, the differential tests check the optimized
// engines against their test-only oracles on them, and TestGoldenCounts
// and TestCorpusAllocs pin their deterministic counts and allocations.

// countPhis returns the number of φ-functions of f.
func countPhis(f *ir.Func) int {
	phis := 0
	for _, b := range f.Blocks {
		phis += len(b.Phis)
	}
	return phis
}

// LivenessCase is one function of the liveness corpus.
type LivenessCase struct {
	Name   string
	Blocks int
	Vars   int
	Phis   int
	fn     *ir.Func
}

// LivenessCorpus generates the deterministic large-CFG corpus. scale
// multiplies the per-function block budget (1 ≈ 2000 blocks per function;
// tests use a fraction).
func LivenessCorpus(scale float64) []LivenessCase {
	profiles := []struct {
		name string
		seed int64
	}{
		{"deeploops-a", 1009},
		{"widejoins-b", 2003},
		{"phiheavy-c", 3001},
	}
	var out []LivenessCase
	for _, p := range profiles {
		for _, f := range cfggen.GenerateLarge(cfggen.LargeLivenessProfile(p.name, p.seed, scale)) {
			out = append(out, LivenessCase{
				Name: f.Name, Blocks: len(f.Blocks), Vars: len(f.Vars), Phis: countPhis(f), fn: f,
			})
		}
	}
	return out
}

// Func returns the case's function (tests drive the engines directly).
func (c *LivenessCase) Func() *ir.Func { return c.fn }

// CoalesceCase is one function of the coalescing corpus, with Method I
// copies already inserted, ready for class-level coalescing.
type CoalesceCase struct {
	Name       string
	Blocks     int
	Vars       int
	Phis       int
	Affinities int

	fn   *ir.Func
	ins  *sreedhar.Insertion
	affs []sreedhar.Affinity
}

// CoalesceCorpus generates the deterministic φ/copy-dense corpus (wide
// switch joins, a large shared-variable pool, most copies kept) and runs
// copy insertion on it. scale multiplies the per-function block budget
// (1 ≈ 800 blocks per function; tests use a fraction).
func CoalesceCorpus(scale float64) []CoalesceCase {
	profiles := []struct {
		name string
		seed int64
	}{
		{"phidense-a", 5003},
		{"copydense-b", 6007},
		{"widejoin-c", 7001},
	}
	var out []CoalesceCase
	for _, p := range profiles {
		for _, f := range cfggen.GenerateLarge(cfggen.LargeCoalesceProfile(p.name, p.seed, scale)) {
			sreedhar.SplitDuplicatePredEdges(f)
			sreedhar.SplitBranchDefEdges(f)
			ins, err := sreedhar.InsertCopies(f)
			if err != nil {
				panic("bench: " + f.Name + ": " + err.Error())
			}
			affs := append([]sreedhar.Affinity(nil), ins.Affinities...)
			affs = append(affs, sreedhar.CollectRealCopies(f, ins)...)
			out = append(out, CoalesceCase{
				Name: f.Name, Blocks: len(f.Blocks), Vars: len(f.Vars),
				Phis: countPhis(f), Affinities: len(affs),
				fn: f, ins: ins, affs: affs,
			})
		}
	}
	return out
}

// Func returns the case's function (tests drive the machinery directly).
func (c *CoalesceCase) Func() *ir.Func { return c.fn }

// Affs returns the case's affinities (φ copies plus surviving real copies).
func (c *CoalesceCase) Affs() []sreedhar.Affinity { return c.affs }

// NewChecker builds an interference checker over the case with the given
// liveness backend (the liveness checker, or bit-set liveness).
func (c *CoalesceCase) NewChecker(useLiveCheck bool) *interference.Checker {
	dt := dom.Build(c.fn)
	du := ir.NewDefUse(c.fn)
	var live interference.BlockLiveness
	if useLiveCheck {
		live = livecheck.New(c.fn, dt, du)
	} else {
		live = liveness.ComputeWith(c.fn, liveness.Bitsets)
	}
	return &interference.Checker{
		F: c.fn, DT: dt, DU: du, Live: live,
		Vals: ssa.Values(c.fn, dt),
	}
}

// RunCoalesce performs one full class-level coalescing pass over the case
// with the Value variant and the linear machinery: fresh congruence
// classes, forced φ-node merges, then the affinity loop.
func (c *CoalesceCase) RunCoalesce(chk *interference.Checker) *coalesce.Result {
	classes := congruence.New(chk)
	for _, node := range c.ins.PhiNodes {
		classes.MergeSingletons(node)
	}
	m := &coalesce.Machinery{Chk: chk, Classes: classes, Linear: true}
	return coalesce.Run(m, c.affs, coalesce.Value, false)
}

// TranslateCase is one pristine SSA function of the end-to-end corpus.
type TranslateCase struct {
	Name   string
	Blocks int
	Vars   int
	Phis   int

	fn *ir.Func
}

// TranslateCorpus generates the deterministic end-to-end corpus; its
// swap-problem loops make surviving parallel copies include cycles, so
// every phase, the sequentializer's cycle breaking included, runs on it.
// scale multiplies the per-function block budget (1 ≈ 500 blocks per
// function; tests use a fraction).
func TranslateCorpus(scale float64) []TranslateCase {
	profiles := []struct {
		name string
		seed int64
	}{
		{"endtoend-a", 8009},
		{"phimix-b", 9001},
	}
	var out []TranslateCase
	for _, p := range profiles {
		for _, f := range cfggen.GenerateLarge(cfggen.LargeTranslateProfile(p.name, p.seed, scale)) {
			out = append(out, TranslateCase{
				Name: f.Name, Blocks: len(f.Blocks), Vars: len(f.Vars), Phis: countPhis(f), fn: f,
			})
		}
	}
	return out
}

// Func returns the case's pristine function (tests drive the engines
// directly).
func (c *TranslateCase) Func() *ir.Func { return c.fn }
