package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program reports in step: same workloads, same names, same units, in the
// same order.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

// TestResultLine checks the last line's shape: every metric of the mode,
// by name with its unit, and an infinite quantile kept finite.
func TestResultLine(t *testing.T) {
	rep := &report{vals: map[string]float64{"p50_ms_low": math.Inf(1)}, attempted: 3, checked: 3}
	var out bytes.Buffer
	if err := emit(&out, rep, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Attempted != 3 || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v", res)
	}
	if m := res.Metrics["p50_ms_low"]; m.Value != failedValue || m.Unit != "ms" {
		t.Fatalf("p50_ms_low reported as %+v", m)
	}
}

func TestRunRefusesUnknownWorkload(t *testing.T) {
	if err := run([]string{"--workload", "nope", "--seconds", "1"}, &bytes.Buffer{}); err == nil {
		t.Fatal("an unknown workload ran")
	}
}
