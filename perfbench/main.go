// Command perfbench is the repository's benchmark: it measures the
// out-of-SSA translator end to end on three workloads, checks every output
// independently, and attributes the time to the layers that spend it. See
// METRICS.md in this directory for what each metric means.
//
//	go run ./perfbench --workload batch-suite --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print every
// metric by name with its unit, the environment, and the check's verdict.
// --trace 1 makes the separate traced run, which reports the per-layer
// metrics and writes its spans to --spans.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/outofssa"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off; every workload reports each of them (METRICS.md gives the
// batch and the serving meaning of each).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"blocks_per_s", "blocks/s"},
	{"p50_ms_low", "ms"},
	{"p50_ms_high", "ms"},
	{"copies_weighted", "copies"},
	{"final_copies", "copies"},
	{"heap_peak_mb", "MB"},
}

// ungated are end-to-end figures every untraced run prints but the result
// line leaves out: on a shared 2-vCPU guest the serving p99 and the
// highest rate meeting a p99 limit follow the other tenants' load by more
// than any bound a regression gate can hold (see METRICS.md).
var ungated = []metricDef{
	{"max_rps", "1/s"},
	{"p99_ms_low", "ms"},
	{"p99_ms_high", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"ir.parse_us", "us"},
	{"ir.print_us", "us"},
	{"serve.handler_ms_p50", "ms"},
	{"serve.handler_ms_p99", "ms"},
	{"serve.transport_ms_p50", "ms"},
	{"serve.json_us", "us"},
	{"serve.attributed_frac", "ratio"},
	{"memo.hit_rate", "ratio"},
	{"memo.evictions", "count"},
	{"memo.fingerprint_us", "us"},
	{"memo.hit_us", "us"},
	{"memo.load_ms", "ms"},
	{"pipeline.verify_ms", "ms"},
	{"pipeline.utilization", "ratio"},
	{"dom.build_ms", "ms"},
	{"ir.defuse_ms", "ms"},
	{"livecheck.build_ms", "ms"},
	{"ssa.values_ms", "ms"},
	{"analysis.hit_rate", "ratio"},
	{"analysis.misses_per_fn.dom", "count"},
	{"analysis.misses_per_fn.defuse", "count"},
	{"analysis.misses_per_fn.liveness", "count"},
	{"analysis.misses_per_fn.livecheck", "count"},
	{"analysis.misses_per_fn.graph", "count"},
	{"core.insert_ms", "ms"},
	{"core.coalesce_ms", "ms"},
	{"core.rewrite_ms", "ms"},
	{"coalesce.intersection_tests", "count"},
	{"coalesce.coalesced_frac", "ratio"},
	{"parcopy.cycle_copies", "count"},
	{"sreedhar.split_edges", "count"},
	{"livecheck.bytes_per_block", "bytes"},
	{"runtime.alloc_bytes_per_block", "bytes"},
	{"runtime.alloc_bytes_per_req", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_p99", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.backlog", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.child_frac.root", "ratio"},
	{"trace.child_frac.client", "ratio"},
	{"trace.spans", "count"},
}

// failedValue stands in for an infinite latency quantile (more failed
// requests than the quantile leaves out) in the JSON result.
const failedValue = 1e9

var workloads = []string{"batch-suite", "batch-large", "serve-mixed"}

// report collects one run's figures.
type report struct {
	vals      map[string]float64
	attempted int
	failed    int
	checked   int
	unchecked int // checked outputs whose behaviour no vector could compare
	wrong     int // wrong_outputs
	notes     []string
}

func (r *report) set(name string, v float64) { r.vals[name] = v }

// addWindow counts a load-generator window's operations.
func (r *report) addWindow(s windowStats) {
	r.attempted += s.attempted
	r.failed += s.failed
}

// setQuality reports the deterministic counters summed over a workload's
// distinct inputs.
func (r *report) setQuality(agg *outofssa.Stats) {
	r.set("copies_weighted", agg.RemainingWeight)
	r.set("final_copies", float64(agg.FinalCopies))
	r.set("coalesce.intersection_tests", float64(agg.IntersectionTests))
	r.set("coalesce.coalesced_frac", 1-float64(agg.RemainingCopies)/float64(agg.Affinities))
	r.set("parcopy.cycle_copies", float64(agg.CycleCopies))
	r.set("sreedhar.split_edges", float64(agg.SplitEdges))
	r.set("livecheck.bytes_per_block", float64(agg.LiveCheckBytes)/float64(agg.Blocks))
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) noteErr(err error) {
	if err != nil {
		r.notef("wrong output: %v", err)
	}
}

// writeSpans writes the span file and notes every layer's self time and
// the share of each span its children account for.
func (r *report) writeSpans(path string, bufs []*spanBuf, layers map[string]*layerTime) error {
	total := 0
	for _, b := range bufs {
		total += len(b.spans)
	}
	r.set("trace.spans", float64(total))
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		l := layers[n]
		r.notef("span %-20s count %8d  total %10.2f ms  self %10.2f ms  children %5.1f%%",
			n, l.count, float64(l.totalNs)/1e6, float64(l.selfNs())/1e6, 100*l.childFrac())
	}
	written, err := writeSpans(path, bufs)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	r.notef("spans: %d recorded, %d written to %s", total, written, path)
	return nil
}

// guardLoad refuses a load generator wider than the machine: all load
// comes from one process with at most nproc senders and connections.
func guardLoad(senders, conns, nproc int) error {
	if senders > nproc || conns > nproc || conns < 1 {
		return fmt.Errorf("load generator would use %d senders and %d connections on %d CPUs", senders, conns, nproc)
	}
	return nil
}

// guardProcs refuses to measure unless the scheduler uses every CPU.
func guardProcs(gomaxprocs, nproc int) error {
	if gomaxprocs != nproc {
		return fmt.Errorf("GOMAXPROCS is %d but the machine has %d CPUs; unset GOMAXPROCS", gomaxprocs, nproc)
	}
	return nil
}

// stamp describes the environment every result was measured in.
func stamp(seed int64) string {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					modified = "+modified"
				}
			}
		}
	}
	return fmt.Sprintf("env nproc=%d gomaxprocs=%d gogc=%s go=%s commit=%s%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), gogc, runtime.Version(), commit, modified, seed)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: batch-suite, batch-large or serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed; it reaches the input generators only")
	seconds := fs.Int("seconds", 12, "length of the measured window")
	trace := fs.Int("trace", 0, "1 makes the traced run and reports per-layer metrics")
	spans := fs.String("spans", "", "span file of the traced run (default .bench_build/perfbench/spans-<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	nproc := runtime.NumCPU()
	if err := guardProcs(runtime.GOMAXPROCS(0), nproc); err != nil {
		return err
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.jsonl", *workload, *seed)
	}
	fmt.Fprintln(stdout, stamp(*seed))

	ctx := context.Background()
	rep := &report{vals: map[string]float64{}}
	secs := float64(*seconds)
	var err error
	switch *workload {
	case "batch-suite", "batch-large":
		gen := suiteCorpus
		if *workload == "batch-large" {
			gen = largeCorpus
		}
		w := newBatchWorkload(gen, *seed, batchDraws, nproc)
		if *trace == 1 {
			err = runBatchTraced(ctx, w, secs, *spans, rep)
		} else {
			err = runBatchWorkload(ctx, w, secs, rep)
		}
	case "serve-mixed":
		var w *serveWorkload
		if w, err = newServeWorkload(*seed, secs, nproc); err != nil {
			break
		}
		if *trace == 1 {
			err = runServeTraced(ctx, w, *spans, rep)
		} else {
			err = runServeWorkload(ctx, w, rep)
		}
	default:
		return fmt.Errorf("unknown workload %q (valid: %v)", *workload, workloads)
	}
	if err != nil {
		return err
	}
	return emit(stdout, rep, *trace == 1)
}

// emit prints every metric by name and unit, then the result line.
func emit(w io.Writer, rep *report, traced bool) error {
	for _, n := range rep.notes {
		fmt.Fprintln(w, n)
	}
	errorRate := 0.0
	if rep.attempted > 0 {
		errorRate = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "%-34s %14d %s\n", "wrong_outputs", rep.wrong, "count")
	fmt.Fprintf(w, "%-34s %14.6f %s\n", "error_rate", errorRate, "ratio")
	fmt.Fprintf(w, "%-34s %14d %s\n", "checked_outputs", rep.checked, "count")
	fmt.Fprintf(w, "%-34s %14d %s\n", "unchecked_behaviour", rep.unchecked, "count")
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, lst := range [][]metricDef{endToEnd, ungated, perLayer} {
		for _, d := range lst {
			if v, ok := rep.vals[d.name]; ok {
				fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	for _, d := range defs {
		v := rep.vals[d.name]
		if math.IsInf(v, 0) || math.IsNaN(v) {
			v = failedValue // JSON has no infinity; a failed request's latency
		}
		metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.wrong == 0 && rep.checked > 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
