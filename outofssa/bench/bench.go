// Package bench regenerates the paper's evaluation (Figures 5, 6 and 7) on
// the synthetic SPEC CINT2000 stand-in suite of the workload generator,
// and builds the large-CFG corpora (liveness, coalescing, end-to-end
// translation) that the root testing.B benchmarks time. It is shared by
// cmd/ssabench and those benchmarks, and is part of the public façade:
// its exported types use the aliases re-exported by package outofssa
// (Strategy, Options, Stats, Func), so external consumers never need an
// internal import. Its tests hold the committed golden table of
// deterministic counts (TestGoldenCounts) and the allocation bounds
// (TestCorpusAllocs).
package bench

import (
	"context"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

// Workers is the worker count handed to pipeline.RunBatch for the untimed
// figures (5 and 7); 0 selects runtime.GOMAXPROCS(0), as RunBatch
// resolves it. The timed Figure 6 always measures sequentially. Results
// are identical for any value — the batch driver's aggregation is
// deterministic.
var Workers = 0

// Benchmark is one named workload of the suite.
type Benchmark struct {
	Name  string
	Funcs []*ir.Func
}

// spec describes the eleven SPEC CINT2000 benchmarks the paper evaluates
// (eon, the C++ benchmark, is excluded there too). The size knobs roughly
// track the relative code sizes of the originals: gcc is by far the
// largest, mcf the smallest.
var spec = []struct {
	name  string
	seed  int64
	funcs int
	stmts int
}{
	{"164.gzip", 164, 10, 160},
	{"175.vpr", 175, 14, 190},
	{"176.gcc", 176, 24, 280},
	{"181.mcf", 181, 6, 110},
	{"186.crafty", 186, 14, 210},
	{"197.parser", 197, 16, 180},
	{"253.perlbmk", 253, 18, 240},
	{"254.gap", 254, 16, 210},
	{"255.vortex", 255, 16, 230},
	{"256.bzip2", 256, 8, 140},
	{"300.twolf", 300, 14, 200},
}

// Suite generates the eleven benchmarks deterministically. scale multiplies
// function counts (1 reproduces the default suite; tests use a smaller
// scale).
func Suite(scale float64) []Benchmark {
	out := make([]Benchmark, 0, len(spec))
	for _, s := range spec {
		p := cfggen.DefaultProfile(s.name, s.seed)
		p.Funcs = int(float64(s.funcs)*scale + 0.5)
		if p.Funcs < 1 {
			p.Funcs = 1
		}
		p.MaxStmts = s.stmts
		p.MinStmts = s.stmts / 3
		out = append(out, Benchmark{Name: s.name, Funcs: cfggen.Generate(p)})
	}
	return out
}

// Names returns the benchmark names in suite order plus the "sum" column.
func Names(suite []Benchmark) []string {
	names := make([]string, 0, len(suite)+1)
	for _, b := range suite {
		names = append(names, b.Name)
	}
	return append(names, "sum")
}

// translateBatch pushes fresh clones of the benchmark's functions through
// the out-of-SSA pipeline on the package worker pool, returning the
// per-function stats (input order) and their aggregate.
func translateBatch(b Benchmark, opt core.Options) ([]*core.Stats, core.Stats) {
	clones := make([]*ir.Func, len(b.Funcs))
	for i, f := range b.Funcs {
		clones[i] = ir.Clone(f)
	}
	res := pipeline.RunBatch(context.Background(), clones, pipeline.Translate(opt), Workers)
	if err := res.Err(); err != nil {
		panic("bench: " + b.Name + ": " + err.Error())
	}
	per := make([]*core.Stats, len(clones))
	for i, ctx := range res.Contexts {
		per[i] = ctx.Stats
	}
	return per, res.Stats
}
