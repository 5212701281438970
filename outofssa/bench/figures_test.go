package bench

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestFig5Shape regenerates Figure 5 at reduced scale and asserts the
// paper's qualitative ordering.
func TestFig5Shape(t *testing.T) {
	suite := Suite(0.25)
	rows := Fig5For(suite, core.Strategies)
	if len(rows) != len(core.Strategies) {
		t.Fatalf("rows = %d", len(rows))
	}
	sum := func(s core.Strategy) float64 {
		for _, r := range rows {
			if r.Strategy == s {
				return r.Ratios[len(r.Ratios)-1]
			}
		}
		t.Fatalf("no row for %v", s)
		return 0
	}
	if sum(core.Intersect) != 1.0 {
		t.Fatal("Intersect is the normalization baseline")
	}
	if !(sum(core.Value) <= sum(core.Chaitin) && sum(core.Chaitin) <= sum(core.SreedharI) &&
		sum(core.SreedharI) <= sum(core.Intersect)) {
		t.Fatalf("interference accuracy ordering violated: I=%v S1=%v C=%v V=%v",
			sum(core.Intersect), sum(core.SreedharI), sum(core.Chaitin), sum(core.Value))
	}
	if sum(core.ValueIS) > sum(core.Value)+1e-9 {
		t.Fatalf("Value+IS (%v) must not lose to Value (%v)", sum(core.ValueIS), sum(core.Value))
	}
	if sum(core.Sharing) > sum(core.ValueIS)+1e-9 {
		t.Fatalf("Sharing (%v) must not lose to Value+IS (%v)", sum(core.Sharing), sum(core.ValueIS))
	}
	if sum(core.ValueIS) > sum(core.SreedharIII) {
		t.Fatalf("Value+IS (%v) must beat the Sreedhar III baseline (%v)",
			sum(core.ValueIS), sum(core.SreedharIII))
	}
	out := FormatFig5(suite, rows, false)
	if !strings.Contains(out, "Sharing") || !strings.Contains(out, "sum") {
		t.Fatal("formatted table incomplete")
	}
}

// TestFig6Runs exercises the timing harness end to end (1 rep, small
// scale); timing ratios are hardware-dependent, so only structure and
// positivity are asserted.
func TestFig6Runs(t *testing.T) {
	suite := Suite(0.1)
	rows := Fig6(suite, 1)
	if len(rows) != len(Fig6Configs()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		for i, d := range r.Times {
			if d <= 0 {
				t.Fatalf("%s: non-positive time in column %d", r.Config.Name, i)
			}
		}
	}
	for i, v := range rows[0].Ratios {
		if v != 1.0 {
			t.Fatalf("baseline ratio column %d = %v", i, v)
		}
	}
	if s := FormatFig6(suite, rows); !strings.Contains(s, "Sreedhar III") {
		t.Fatal("formatted table incomplete")
	}
}

// TestFig7Shape asserts the paper's memory-footprint ordering.
func TestFig7Shape(t *testing.T) {
	rows := Fig7(Suite(0.2))
	byName := map[string]Fig7Row{}
	for _, r := range rows {
		byName[r.Config.Name] = r
	}
	base := byName["Sreedhar III"]
	final := byName["Us I + Linear + InterCheck + LiveCheck"]
	if final.TotMeasured*5 > base.TotMeasured {
		t.Fatalf("final configuration must use ≥5x less measured memory: %d vs %d",
			final.TotMeasured, base.TotMeasured)
	}
	interCheck := byName["Us III + InterCheck"]
	if interCheck.TotMeasured >= base.TotMeasured {
		t.Fatal("dropping the interference graph must reduce the footprint")
	}
	if s := FormatFig7(rows); !strings.Contains(s, "absolute totals") {
		t.Fatal("formatted table incomplete")
	}
}

func TestSuiteDeterminismAndNames(t *testing.T) {
	a, b := Suite(0.1), Suite(0.1)
	if len(a) != 11 {
		t.Fatalf("11 benchmarks expected, got %d", len(a))
	}
	for i := range a {
		if a[i].Name != b[i].Name || len(a[i].Funcs) != len(b[i].Funcs) {
			t.Fatal("suite not deterministic")
		}
		for j := range a[i].Funcs {
			if a[i].Funcs[j].String() != b[i].Funcs[j].String() {
				t.Fatal("function bodies not deterministic")
			}
		}
	}
	names := Names(a)
	if names[0] != "164.gzip" || names[len(names)-1] != "sum" {
		t.Fatalf("names wrong: %v", names)
	}
}
