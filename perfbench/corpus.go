package main

import (
	"math/rand"

	"repro/internal/cfggen"
	"repro/outofssa"
)

// The seed reaches the input generators and nothing else: every corpus
// below is a pure function of it, and the system under test only ever sees
// the generated functions.

// suiteSpec mirrors the eleven SPEC CINT2000 stand-ins of bench.Suite
// (name, generator seed, function count, statement budget). Seed 0
// reproduces bench.Suite(1) exactly; another seed shifts every profile
// seed, giving a suite of the same shape with different functions.
var suiteSpec = []struct {
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

// seedShift spreads workload seeds far apart in the generators' seed
// space so neighbouring workload seeds never share a profile seed.
const seedShift = 1_000_003

// suiteCorpus is the batch-suite input: 156 small and medium functions.
func suiteCorpus(seed int64) []*outofssa.Func {
	var out []*outofssa.Func
	for _, s := range suiteSpec {
		p := outofssa.DefaultProfile(s.name, s.seed+seed*seedShift)
		p.Funcs = s.funcs
		p.MaxStmts = s.stmts
		p.MinStmts = s.stmts / 3
		out = append(out, outofssa.Generate(p)...)
	}
	return out
}

// largeCorpus is the batch-large input: four translate-profile functions
// of about 1000 blocks whose loops carry swap cycles, and four
// liveness-profile functions of about 1500 blocks with deep loop nests and
// wide joins. Like the repository's other large-CFG corpora they keep the
// generator's unit block frequencies, so the weighted copy count is not
// dominated by the few copies inside the deepest loop nest.
func largeCorpus(seed int64) []*outofssa.Func {
	tp := cfggen.LargeTranslateProfile("large-swap", 8009+seed*seedShift, 2)
	tp.Funcs = 4
	lp := cfggen.LargeLivenessProfile("large-deep", 4001+seed*seedShift, 0.75)
	lp.Funcs = 4
	return append(cfggen.GenerateLarge(tp), cfggen.GenerateLarge(lp)...)
}

// Serve stream shape.
const (
	// serveWarm is the number of functions whose translations the boot
	// snapshot holds; they are also the first candidates for repeats.
	serveWarm = 1000
	// serveMemoEntries bounds the server's memo below the stream's
	// distinct-function count (warm plus fresh), so LRU eviction runs.
	serveMemoEntries = 1024
	// serveRecent is the window of recently sent functions a repeat is
	// drawn from; it is well inside the memo bound, so repeats hit.
	serveRecent = 256
	// serveRepeatFrac is the share of requests that repeat a recent
	// function.
	serveRepeatFrac = 0.5
)

// serveCorpus is the serve-mixed input: the textual IR of the warm
// functions the boot snapshot is built from, then of a pool of never-seen
// functions, and the request stream over both. Only text is kept: the
// benchmark shares the server's heap, and parsed functions would make
// every collection in the timed window mark the benchmark's inputs too.
type serveCorpus struct {
	src    []string // warm functions first, then fresh ones
	blocks []int    // input block count, same indexing
	stream []int    // request order, as indexes into src
}

// newServeCorpus generates nWarm warm functions (at least serveRecent),
// nFresh fresh ones and a stream that uses every fresh function once,
// interleaved with repeats. It also returns the warm functions, for
// building the boot snapshot.
func newServeCorpus(seed int64, nWarm, nFresh int) (*serveCorpus, []*outofssa.Func) {
	p := outofssa.DefaultProfile("svc", 7001+seed*seedShift)
	p.Funcs = nWarm + nFresh
	all := outofssa.Generate(p)
	c := &serveCorpus{}
	for _, f := range all {
		c.src = append(c.src, f.String())
		c.blocks = append(c.blocks, len(f.Blocks))
	}
	rng := rand.New(rand.NewSource(seed*seedShift + 17))
	// recent starts as the tail of the warm set: the functions the boot
	// snapshot holds were "sent" before the server restarted.
	recent := make([]int, 0, serveRecent)
	for i := nWarm - serveRecent; i < nWarm; i++ {
		recent = append(recent, i)
	}
	next := nWarm
	for next < len(all) {
		if rng.Float64() < serveRepeatFrac {
			c.stream = append(c.stream, recent[rng.Intn(len(recent))])
			continue
		}
		c.stream = append(c.stream, next)
		copy(recent, recent[1:])
		recent[len(recent)-1] = next
		next++
	}
	return c, all[:nWarm]
}
