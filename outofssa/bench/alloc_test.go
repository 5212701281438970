package bench

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/pipeline"
)

// scaleCorpus is the batch corpus of the RunBatch allocation bound: 30
// medium-grain functions followed by two ~4× stragglers, the input order
// that makes a chunked dispatcher's last shard the heaviest.
func scaleCorpus(scale float64) []*ir.Func {
	grain := cfggen.LargeScaleProfile("batchgrain", 7001, scale)
	straggler := cfggen.LargeScaleProfile("straggler", 7019, scale)
	straggler.Funcs = 2
	// 4× the grain's effective budget, so the stragglers stay stragglers
	// even where the profile's minimum block floor applies.
	straggler.Blocks = grain.Blocks * 4
	return append(cfggen.GenerateLarge(grain), cfggen.GenerateLarge(straggler)...)
}

// TestScaleCorpusDeterministic: the batch corpus is a pure function of
// its scale, and the stragglers close the input.
func TestScaleCorpusDeterministic(t *testing.T) {
	a, b := scaleCorpus(0.05), scaleCorpus(0.05)
	if len(a) != 32 || len(b) != len(a) {
		t.Fatalf("corpus sizes %d and %d, want 32", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].String() != b[i].String() {
			t.Fatalf("function %d differs between generations", i)
		}
	}
	last := a[len(a)-1]
	if !strings.HasPrefix(last.Name, "straggler") || len(last.Blocks) <= len(a[0].Blocks) {
		t.Fatalf("last function %s (%d blocks) is not a straggler beside %d-block grain",
			last.Name, len(last.Blocks), len(a[0].Blocks))
	}
}

// allocRow is one steady-state operation whose allocations are bounded.
type allocRow struct {
	key string
	run func()
}

// allocRows lists the bounded operations: a pooled translation (CloneInto
// plus TranslateInto with one reused Scratch) of each translate case
// under each Figure 5 strategy, one coalescing pass over each coalescing
// case on each liveness backend, one liveness computation of each
// liveness case on each set backend, and one RunBatch over the batch
// corpus at 1 and 4 workers.
func allocRows(t *testing.T) []allocRow {
	var rows []allocRow
	sc := core.NewScratch()
	for _, c := range TranslateCorpus(0.05) {
		dst := ir.NewFunc("")
		for _, s := range core.Strategies {
			opt := fig5Options(s)
			rows = append(rows, allocRow{rowKey("translate", c.Name, s.String()), func() {
				ir.CloneInto(dst, c.Func())
				if _, err := core.TranslateInto(dst, opt, nil, sc); err != nil {
					t.Fatal(err)
				}
			}})
		}
	}
	for _, c := range CoalesceCorpus(0.05) {
		for _, bk := range coalesceBackends {
			chk := c.NewChecker(false, bk.livecheck)
			rows = append(rows, allocRow{rowKey("coalesce", c.Name, bk.name), func() { c.RunCoalesce(chk) }})
		}
	}
	for _, c := range LivenessCorpus(0.05) {
		for _, bk := range livenessBackends {
			rows = append(rows, allocRow{rowKey("liveness", c.Name, bk.name), func() { liveness.ComputeWith(c.Func(), bk.be) }})
		}
	}
	corpus := scaleCorpus(0.05)
	dsts := make([]*ir.Func, len(corpus))
	for i := range dsts {
		dsts[i] = ir.NewFunc("")
	}
	pl := pipeline.Translate(core.Options{Strategy: core.Sharing, Linear: true, LiveCheck: true})
	for _, workers := range []int{1, 4} {
		rows = append(rows, allocRow{rowKey("batch", "scale", fmt.Sprintf("workers=%d", workers)), func() {
			for i, f := range corpus {
				ir.CloneInto(dsts[i], f)
			}
			if err := pipeline.RunBatch(context.Background(), dsts, pl, workers).Err(); err != nil {
				t.Fatal(err)
			}
		}})
	}
	return rows
}

// TestCorpusAllocs bounds the steady-state allocations of every row of
// allocRows at 20% over the count committed in testdata/allocs.golden.
// An intended change rewrites the table with -update (a lower count
// tightens the bound).
func TestCorpusAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocations distort AllocsPerRun")
	}
	const path = "testdata/allocs.golden"
	rows := allocRows(t)
	got := make([]float64, len(rows))
	lines := make([]string, len(rows))
	for i, r := range rows {
		for j := 0; j < 3; j++ {
			r.run() // warm the scratch, the destinations and the arenas
		}
		got[i] = testing.AllocsPerRun(5, r.run)
		lines[i] = fmt.Sprintf("%s %g", r.key, got[i])
	}
	committed := map[string]float64{}
	for _, line := range readGolden(t, path, lines) {
		i := strings.LastIndexByte(line, ' ')
		n, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		committed[line[:i]] = n
	}
	for i, r := range rows {
		base, ok := committed[r.key]
		if !ok {
			t.Errorf("%s: no row for %q; regenerate with -update", path, r.key)
			continue
		}
		if bound := base * 1.2; got[i] > bound {
			t.Errorf("%s: %v allocations per run, bound %.1f (%v committed + 20%%)", r.key, got[i], bound, base)
		}
	}
}
