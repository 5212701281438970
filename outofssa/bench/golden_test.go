package bench

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/liveness"
)

var update = flag.Bool("update", false, "rewrite the golden tables in testdata/")

// coalesceBackends are the liveness backends a coalescing pass runs on.
var coalesceBackends = []struct {
	name      string
	livecheck bool
}{
	{"livecheck", true},
	{"liveness", false},
}

// livenessBackends are the set representations of the liveness engine.
var livenessBackends = []struct {
	name string
	be   liveness.Backend
}{
	{"bitsets", liveness.Bitsets},
	{"ordered", liveness.OrderedSets},
}

// rowKey names one row of a golden table: the corpus, the case, and the
// variant (strategy or backend), in aligned columns.
func rowKey(corpus, case_, variant string) string {
	return fmt.Sprintf("%-9s %-15s %-12s", corpus, case_, variant)
}

// goldenCounts computes every row of the count table: the copies and
// intersection tests of the translate corpus under each Figure 5
// strategy, the outcome of one coalescing pass over the coalescing corpus
// on each liveness backend, the worklist effort of the liveness engine,
// and the remaining-copy counts behind Figure 5 at full scale.
func goldenCounts(t *testing.T) []string {
	var rows []string
	for _, c := range TranslateCorpus(0.05) {
		for _, s := range core.Strategies {
			st, err := core.TranslateInto(ir.Clone(c.Func()), fig5Options(s), nil)
			if err != nil {
				t.Fatalf("%s/%v: %v", c.Name, s, err)
			}
			rows = append(rows, fmt.Sprintf("%s remaining=%d final=%d tests=%d",
				rowKey("translate", c.Name, s.String()), st.RemainingCopies, st.FinalCopies, st.IntersectionTests))
		}
	}
	for _, c := range CoalesceCorpus(0.05) {
		for _, bk := range coalesceBackends {
			chk := c.NewChecker(bk.livecheck)
			res := c.RunCoalesce(chk)
			rows = append(rows, fmt.Sprintf("%s tests=%d coalesced=%d remaining=%d",
				rowKey("coalesce", c.Name, bk.name), chk.Queries, res.Removed, res.RemainingCount))
		}
	}
	for _, c := range LivenessCorpus(0.05) {
		for _, bk := range livenessBackends {
			info := liveness.ComputeWith(c.Func(), bk.be)
			rows = append(rows, fmt.Sprintf("%s pops=%d iterations=%d",
				rowKey("liveness", c.Name, bk.name), info.Pops, info.Iterations))
		}
	}
	suite := Suite(1)
	names := Names(suite)
	for _, r := range Fig5For(suite, core.Strategies) {
		for i, n := range names {
			rows = append(rows, fmt.Sprintf("%s remaining=%d", rowKey("fig5", n, r.Strategy.String()), r.Counts[i]))
		}
	}
	return rows
}

// TestGoldenCounts holds every deterministic count of the corpora and of
// Figure 5 to the committed table, by equality: fewer copies or tests is
// a change too, and an intended one rewrites the table (go test
// ./outofssa/bench -run TestGoldenCounts -update) where the diff shows
// it.
func TestGoldenCounts(t *testing.T) {
	const path = "testdata/counts.golden"
	got := goldenCounts(t)
	want := readGolden(t, path, got)
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g string
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			t.Errorf("%s line %d:\n got %s\nwant %s", path, i+1, g, w)
		}
	}
	if t.Failed() {
		t.Log("regenerate with -update if the change is intended")
	}
}

// readGolden returns the lines of the committed table at path, after
// rewriting it with rows under -update.
func readGolden(t *testing.T, path string, rows []string) []string {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
}
