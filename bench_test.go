package repro

// Benchmarks regenerating the paper's evaluation, one per figure, plus
// ablations for the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
//
// The figures proper (with per-benchmark columns and normalization) are
// produced by cmd/ssabench; these testing.B entries measure the same code
// paths and expose the headline metrics to `go test -bench`.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/coalesce"
	"repro/internal/congruence"
	"repro/internal/core"
	"repro/internal/dom"
	"repro/internal/interference"
	"repro/internal/ir"
	"repro/internal/livecheck"
	"repro/internal/liveness"
	"repro/internal/parcopy"
	"repro/internal/pipeline"
	"repro/internal/sreedhar"
	"repro/internal/ssa"
	"repro/outofssa/bench"
)

var (
	suiteOnce sync.Once
	suite     []bench.Benchmark
	suiteFns  []*ir.Func
)

func workload() []*ir.Func {
	suiteOnce.Do(func() {
		suite = bench.Suite(0.25)
		for _, b := range suite {
			suiteFns = append(suiteFns, b.Funcs...)
		}
	})
	return suiteFns
}

// translateAll times core.Translate over the workload. Each iteration's
// inputs are cloned up front with the timer stopped, so only translation
// is timed.
func translateAll(b *testing.B, opt core.Options) {
	b.Helper()
	fns := workload()
	clones := make([]*ir.Func, len(fns))
	remaining := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // cloning is not part of the translation cost
		for j, f := range fns {
			clones[j] = ir.Clone(f)
		}
		b.StartTimer()
		for _, f := range clones {
			st, err := core.Translate(f, opt)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				remaining += st.RemainingCopies
			}
		}
	}
	b.ReportMetric(float64(remaining), "copies-remaining")
}

// BenchmarkFig5 measures each coalescing strategy; the copies-remaining
// metric is the quantity Figure 5 plots (normalize against Intersect).
func BenchmarkFig5(b *testing.B) {
	for _, s := range core.Strategies {
		opt := core.Options{Strategy: s, Linear: true, LiveCheck: true}
		if s == core.SreedharIII {
			opt = core.Options{Strategy: s, Virtualize: true, UseGraph: true}
		}
		b.Run(s.String(), func(b *testing.B) {
			translateAll(b, opt)
		})
	}
}

// BenchmarkFig6 times the seven machinery configurations of Figure 6 on the
// suite (Sreedhar III is the paper's baseline).
func BenchmarkFig6(b *testing.B) {
	for _, cfg := range bench.Fig6Configs() {
		b.Run(cfg.Name, func(b *testing.B) {
			translateAll(b, cfg.Opt)
		})
	}
}

// BenchmarkFig7 reports the memory footprints of Figure 7 as metrics:
// bytes actually held by the interference graph and liveness structures,
// plus the paper's perfect-memory evaluations.
func BenchmarkFig7(b *testing.B) {
	for _, cfg := range bench.Fig6Configs() {
		b.Run(cfg.Name, func(b *testing.B) {
			fns := workload()
			var measured, ordered, bits float64
			for i := 0; i < b.N; i++ {
				measured, ordered, bits = 0, 0, 0
				for _, f := range fns {
					st, err := core.Translate(ir.Clone(f), cfg.Opt)
					if err != nil {
						b.Fatal(err)
					}
					measured += float64(st.GraphBytes + st.LiveSetBytes + st.LiveCheckBytes)
					ordered += float64(st.GraphEval + st.LiveSetEval + st.LiveCheckEval)
					bits += float64(st.GraphEval + st.LiveSetBitEval + st.LiveCheckEval)
				}
			}
			b.ReportMetric(measured, "bytes-measured")
			b.ReportMetric(ordered, "bytes-ordered-eval")
			b.ReportMetric(bits, "bytes-bitset-eval")
		})
	}
}

// BenchmarkRunBatch sweeps worker counts over the synthetic workload,
// demonstrating the batch driver's scaling: every worker count produces
// identical translated IR and aggregate statistics; only wall-clock
// changes. The copies-remaining metric doubles as a determinism witness
// across the sub-benchmarks.
func BenchmarkRunBatch(b *testing.B) {
	fns := workload()
	opt := core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}
	pl := pipeline.Translate(opt)
	seen := map[int]bool{}
	for _, w := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var remaining int
			for i := 0; i < b.N; i++ {
				b.StopTimer() // cloning is not part of the translation cost
				clones := make([]*ir.Func, len(fns))
				for j, f := range fns {
					clones[j] = ir.Clone(f)
				}
				b.StartTimer()
				res := pipeline.RunBatch(context.Background(), clones, pl, w)
				if err := res.Err(); err != nil {
					b.Fatal(err)
				}
				remaining = res.Stats.RemainingCopies
			}
			b.ReportMetric(float64(remaining), "copies-remaining")
		})
	}
}

// BenchmarkAblationClassInterference compares the paper's linear
// congruence-class interference test against the quadratic all-pairs test
// on identical merge workloads (DESIGN.md ablation).
func BenchmarkAblationClassInterference(b *testing.B) {
	run := func(b *testing.B, linear bool) {
		fns := workload()
		tests := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, orig := range fns {
				f := ir.Clone(orig)
				sreedhar.SplitDuplicatePredEdges(f)
				sreedhar.SplitBranchDefEdges(f)
				ins, err := sreedhar.InsertCopies(f)
				if err != nil {
					b.Fatal(err)
				}
				dt := dom.Build(f)
				du := ir.NewDefUse(f)
				chk := &interference.Checker{
					F: f, DT: dt, DU: du,
					Live: livecheck.New(f, dt, du),
					Vals: ssa.Values(f, dt),
				}
				classes := congruence.New(chk)
				for _, node := range ins.PhiNodes {
					classes.MergeSingletons(node)
				}
				m := &coalesce.Machinery{Chk: chk, Classes: classes, Linear: linear}
				coalesce.Run(m, ins.Affinities, coalesce.Value, false)
				tests += classes.Tests
			}
		}
		b.ReportMetric(float64(tests)/float64(b.N), "pair-tests")
	}
	b.Run("Linear", func(b *testing.B) { run(b, true) })
	b.Run("Quadratic", func(b *testing.B) { run(b, false) })
}

var (
	liveCorpusOnce sync.Once
	liveCorpus     []bench.LivenessCase
)

// livenessWorkload returns the large-CFG liveness corpus at a
// bench-friendly scale (still hundreds of blocks per function).
func livenessWorkload() []bench.LivenessCase {
	liveCorpusOnce.Do(func() { liveCorpus = bench.LivenessCorpus(0.1) })
	return liveCorpus
}

// BenchmarkLiveness measures the worklist liveness engine against the
// pre-worklist round-robin reference on the synthetic large-CFG corpus,
// for both set backends.
func BenchmarkLiveness(b *testing.B) {
	engines := []struct {
		name string
		run  func(*ir.Func, liveness.Backend) *liveness.Info
	}{
		{"Worklist", func(f *ir.Func, be liveness.Backend) *liveness.Info {
			return liveness.ComputeWith(f, be)
		}},
		{"Reference", liveness.ComputeReference},
	}
	backends := []struct {
		name string
		be   liveness.Backend
	}{
		{"Bitsets", liveness.Bitsets},
		{"Ordered", liveness.OrderedSets},
	}
	for _, eng := range engines {
		for _, bk := range backends {
			b.Run(eng.name+"/"+bk.name, func(b *testing.B) {
				corpus := livenessWorkload()
				b.ReportAllocs()
				b.ResetTimer()
				pops := 0
				for i := 0; i < b.N; i++ {
					pops = 0
					for _, c := range corpus {
						pops += eng.run(c.Func(), bk.be).Pops
					}
				}
				b.ReportMetric(float64(pops), "fixpoint-pops")
			})
		}
	}
}

var (
	coalCorpusOnce sync.Once
	coalCorpus     []bench.CoalesceCase
)

// coalesceWorkload returns the φ/copy-dense coalescing corpus at a
// bench-friendly scale.
func coalesceWorkload() []bench.CoalesceCase {
	coalCorpusOnce.Do(func() { coalCorpus = bench.CoalesceCorpus(0.1) })
	return coalCorpus
}

// BenchmarkCoalesce measures one class-level coalescing pass (binary-search
// LiveAfter, packed def-point keys, pooled congruence storage) on the
// φ/copy-dense corpus, for both liveness backends.
func BenchmarkCoalesce(b *testing.B) {
	for _, bk := range []struct {
		name      string
		livecheck bool
	}{{"LiveCheck", true}, {"Liveness", false}} {
		b.Run(bk.name, func(b *testing.B) {
			corpus := coalesceWorkload()
			chks := make([]*interference.Checker, len(corpus))
			for i := range corpus {
				chks[i] = corpus[i].NewChecker(bk.livecheck)
			}
			b.ReportAllocs()
			b.ResetTimer()
			queries := 0
			for i := 0; i < b.N; i++ {
				for j := range corpus {
					chks[j].Queries = 0
					corpus[j].RunCoalesce(chks[j])
					queries += chks[j].Queries
				}
			}
			b.ReportMetric(float64(queries)/float64(b.N), "pair-queries")
		})
	}
}

var (
	transCorpusOnce sync.Once
	transCorpus     []bench.TranslateCase
)

// translateWorkload returns the end-to-end translation corpus at a
// bench-friendly scale.
func translateWorkload() []bench.TranslateCase {
	transCorpusOnce.Do(func() { transCorpus = bench.TranslateCorpus(0.1) })
	return transCorpus
}

// BenchmarkTranslate measures end-to-end clone+translate steady state —
// the pooled-scratch/slab allocation path (CloneInto + TranslateInto with
// one reused core.Scratch) against translation with no reuse (Clone +
// TranslateInto with a fresh core.Scratch per function) — for the default
// Sharing strategy and the virtualized Sreedhar III baseline.
func BenchmarkTranslate(b *testing.B) {
	strategies := []struct {
		name string
		opt  core.Options
	}{
		{"Sharing", core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true}},
		{"SreedharIII", core.Options{Strategy: core.SreedharIII, Virtualize: true, UseGraph: true}},
	}
	for _, s := range strategies {
		b.Run("Pooled/"+s.name, func(b *testing.B) {
			corpus := translateWorkload()
			sc := core.NewScratch()
			dsts := make([]*ir.Func, len(corpus))
			for i := range dsts {
				dsts[i] = ir.NewFunc("")
			}
			b.ReportAllocs()
			b.ResetTimer()
			copies := 0
			for i := 0; i < b.N; i++ {
				copies = 0
				for j := range corpus {
					ir.CloneInto(dsts[j], corpus[j].Func())
					st, err := core.TranslateInto(dsts[j], s.opt, nil, sc)
					if err != nil {
						b.Fatal(err)
					}
					copies += st.FinalCopies
				}
			}
			b.ReportMetric(float64(copies), "final-copies")
		})
		b.Run("Fresh/"+s.name, func(b *testing.B) {
			corpus := translateWorkload()
			b.ReportAllocs()
			b.ResetTimer()
			copies := 0
			for i := 0; i < b.N; i++ {
				copies = 0
				for j := range corpus {
					st, err := core.TranslateInto(ir.Clone(corpus[j].Func()), s.opt, nil, core.NewScratch())
					if err != nil {
						b.Fatal(err)
					}
					copies += st.FinalCopies
				}
			}
			b.ReportMetric(float64(copies), "final-copies")
		})
	}
}

// BenchmarkAblationLiveness compares constructing dataflow liveness sets
// (bit sets and ordered sets) against the CFG-only liveness checker.
func BenchmarkAblationLiveness(b *testing.B) {
	fns := workload()
	b.Run("Sets-Bit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				liveness.ComputeWith(f, liveness.Bitsets)
			}
		}
	})
	b.Run("Sets-Ordered", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				liveness.ComputeWith(f, liveness.OrderedSets)
			}
		}
	})
	b.Run("LiveCheck", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, f := range fns {
				dt := dom.Build(f)
				livecheck.New(f, dt, ir.NewDefUse(f))
			}
		}
	})
}

// BenchmarkAblationSequentialization measures Algorithm 1 and reports how
// many copies a naive per-pair-temporary sequentializer would emit instead.
func BenchmarkAblationSequentialization(b *testing.B) {
	// A mix of permutations (cycles) and fan-out trees.
	type pc struct{ dsts, srcs []ir.VarID }
	var cases []pc
	for n := 2; n <= 12; n++ {
		perm := make([]ir.VarID, n)
		for i := range perm {
			perm[i] = ir.VarID((i + 1) % n) // one n-cycle
		}
		ids := make([]ir.VarID, n)
		for i := range ids {
			ids[i] = ir.VarID(i)
		}
		cases = append(cases, pc{dsts: perm, srcs: ids})
	}
	scratch := ir.VarID(1000)
	sc := parcopy.NewScratch()
	emitted, naive := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		emitted, naive = 0, 0
		for _, c := range cases {
			seq := sc.Sequentialize(c.dsts, c.srcs, func() ir.VarID { return scratch })
			emitted += len(seq)
			naive += parcopy.NaiveCount(c.dsts, c.srcs)
		}
	}
	b.ReportMetric(float64(emitted), "copies-optimal")
	b.ReportMetric(float64(naive), "copies-naive")
}

// BenchmarkAblationPhases breaks the translation time of the final
// configuration into the paper's four conceptual phases (copy insertion,
// analyses, coalescing, rewrite), as per-op metrics.
func BenchmarkAblationPhases(b *testing.B) {
	for _, cfg := range []bench.Config{
		{Name: "Sreedhar III", Opt: core.Options{Strategy: core.SreedharIII, Virtualize: true, UseGraph: true, OrderedSets: true}},
		{Name: "Us I Linear LiveCheck", Opt: core.Options{Strategy: core.Value, Linear: true, LiveCheck: true}},
	} {
		b.Run(cfg.Name, func(b *testing.B) {
			fns := workload()
			var ins, ana, coa, rew int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ins, ana, coa, rew = 0, 0, 0, 0
				for _, f := range fns {
					st, err := core.Translate(ir.Clone(f), cfg.Opt)
					if err != nil {
						b.Fatal(err)
					}
					ins += st.InsertNanos
					ana += st.AnalyzeNanos
					coa += st.CoalesceNanos
					rew += st.RewriteNanos
				}
			}
			b.ReportMetric(float64(ins), "ns-insert")
			b.ReportMetric(float64(ana), "ns-analyze")
			b.ReportMetric(float64(coa), "ns-coalesce")
			b.ReportMetric(float64(rew), "ns-rewrite")
		})
	}
}
