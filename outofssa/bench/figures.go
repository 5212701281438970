package bench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pipeline"
)

// ---------------------------------------------------------------- Figure 5

// Fig5Row is one coalescing strategy's remaining-copy ratios, one column
// per benchmark plus the final "sum" column, normalized to the Intersect
// strategy as in the paper.
type Fig5Row struct {
	Strategy     core.Strategy
	Counts       []int     // raw remaining static copies
	Ratios       []float64 // vs Intersect
	WeightRatios []float64 // frequency-weighted ("dynamic") ratio vs Intersect
}

// fig5Options picks the machinery for a strategy: quality is independent of
// the machinery, so the fast combination is used except for the Sreedhar
// III baseline, which is inherently virtualized with an interference graph.
func fig5Options(s core.Strategy) core.Options {
	if s == core.SreedharIII {
		return core.Options{Strategy: s, Virtualize: true, UseGraph: true}
	}
	return core.Options{Strategy: s, Linear: true, LiveCheck: true}
}

// Fig5For reproduces Figure 5 for the given strategies: the impact of
// interference accuracy and coalescing strategy on the number of remaining
// moves. The Intersect strategy is the paper's normalization baseline, so
// it is computed (and reported first) even when absent from the request.
func Fig5For(suite []Benchmark, strategies []core.Strategy) []Fig5Row {
	if len(strategies) == 0 || strategies[0] != core.Intersect {
		withBase := append([]core.Strategy{core.Intersect}, strategies...)
		strategies = withBase[:1]
		for _, s := range withBase[1:] {
			if s != core.Intersect {
				strategies = append(strategies, s)
			}
		}
	}
	n := len(suite) + 1 // + sum column
	rows := make([]Fig5Row, 0, len(strategies))
	var base, baseW []float64
	for _, s := range strategies {
		row := Fig5Row{
			Strategy:     s,
			Counts:       make([]int, n),
			Ratios:       make([]float64, n),
			WeightRatios: make([]float64, n),
		}
		counts := make([]float64, n)
		weights := make([]float64, n)
		for i, b := range suite {
			_, agg := translateBatch(b, fig5Options(s))
			counts[i] = float64(agg.RemainingCopies)
			weights[i] = agg.RemainingWeight
			counts[n-1] += counts[i]
			weights[n-1] += weights[i]
			row.Counts[i] = int(counts[i])
		}
		row.Counts[n-1] = int(counts[n-1])
		if base == nil {
			base, baseW = counts, weights
		}
		for i := range counts {
			row.Ratios[i] = ratio(counts[i], base[i])
			row.WeightRatios[i] = ratio(weights[i], baseW[i])
		}
		rows = append(rows, row)
	}
	return rows
}

func ratio(x, base float64) float64 {
	if base == 0 {
		if x == 0 {
			return 1
		}
		return 0
	}
	return x / base
}

// FormatFig5 renders the rows as the paper's figure: remaining-move ratio
// per benchmark, lower is better, Intersect = 1.0.
func FormatFig5(suite []Benchmark, rows []Fig5Row, weighted bool) string {
	var b strings.Builder
	title := "Figure 5: remaining static copies, normalized to Intersect"
	if weighted {
		title = "Figure 5 (companion): frequency-weighted remaining copies, normalized to Intersect"
	}
	fmt.Fprintf(&b, "%s\n", title)
	names := Names(suite)
	fmt.Fprintf(&b, "%-14s", "strategy")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", shorten(n))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s", r.Strategy)
		vals := r.Ratios
		if weighted {
			vals = r.WeightRatios
		}
		for _, v := range vals {
			fmt.Fprintf(&b, " %12.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func shorten(n string) string {
	if i := strings.IndexByte(n, '.'); i >= 0 && len(n) > 12 {
		return n[i+1:]
	}
	return n
}

// ---------------------------------------------------------------- Figure 6

// Config is one machinery combination of Figures 6 and 7.
type Config struct {
	Name string
	Opt  core.Options
}

// Fig6Configs lists the seven configurations of Figure 6, Sreedhar III
// first (it is the normalization baseline).
func Fig6Configs() []Config {
	return []Config{
		{"Sreedhar III", core.Options{Strategy: core.SreedharIII, Virtualize: true, UseGraph: true, OrderedSets: true}},
		{"Us III", core.Options{Strategy: core.Value, Virtualize: true, UseGraph: true, OrderedSets: true}},
		{"Us III + InterCheck", core.Options{Strategy: core.Value, Virtualize: true, OrderedSets: true}},
		{"Us III + InterCheck + LiveCheck", core.Options{Strategy: core.Value, Virtualize: true, LiveCheck: true}},
		{"Us III + Linear + InterCheck + LiveCheck", core.Options{Strategy: core.Value, Virtualize: true, LiveCheck: true, Linear: true}},
		{"Us I", core.Options{Strategy: core.Value, UseGraph: true, OrderedSets: true}},
		{"Us I + Linear + InterCheck + LiveCheck", core.Options{Strategy: core.Value, LiveCheck: true, Linear: true}},
	}
}

// Fig6Row is one configuration's translation time per benchmark (plus sum),
// normalized to Sreedhar III.
type Fig6Row struct {
	Config Config
	Times  []time.Duration
	Ratios []float64
}

// Fig6 reproduces Figure 6: out-of-SSA translation time. reps repeats each
// measurement and keeps the minimum, damping scheduler noise.
func Fig6(suite []Benchmark, reps int) []Fig6Row {
	if reps < 1 {
		reps = 1
	}
	cfgs := Fig6Configs()
	rows := make([]Fig6Row, len(cfgs))
	n := len(suite) + 1
	for ci, cfg := range cfgs {
		rows[ci] = Fig6Row{Config: cfg, Times: make([]time.Duration, n), Ratios: make([]float64, n)}
		pl := pipeline.Translate(cfg.Opt)
		for bi, b := range suite {
			best := time.Duration(0)
			for r := 0; r < reps; r++ {
				var elapsed time.Duration
				for _, f := range b.Funcs {
					clone := ir.Clone(f)
					start := time.Now()
					if _, err := pl.Run(context.Background(), clone); err != nil {
						panic("bench: " + err.Error())
					}
					elapsed += time.Since(start)
				}
				if r == 0 || elapsed < best {
					best = elapsed
				}
			}
			rows[ci].Times[bi] = best
			rows[ci].Times[n-1] += best
		}
	}
	for ci := range rows {
		for i := range rows[ci].Times {
			rows[ci].Ratios[i] = ratio(float64(rows[ci].Times[i]), float64(rows[0].Times[i]))
		}
	}
	return rows
}

// FormatFig6 renders the timing table (lower is better, Sreedhar III = 1.0).
func FormatFig6(suite []Benchmark, rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: out-of-SSA translation time, normalized to Sreedhar III\n")
	names := Names(suite)
	fmt.Fprintf(&b, "%-42s", "configuration")
	for _, n := range names {
		fmt.Fprintf(&b, " %12s", shorten(n))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s", r.Config.Name)
		for _, v := range r.Ratios {
			fmt.Fprintf(&b, " %12.3f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Row is one configuration's memory footprint under the three
// accountings of the paper (measured, evaluated with ordered sets,
// evaluated with bit sets), as maximum over functions and total.
type Fig7Row struct {
	Config                             Config
	MaxMeasured, MaxOrdered, MaxBitset int
	TotMeasured, TotOrdered, TotBitset int
}

// Fig7 reproduces Figure 7: memory footprint of the interference graph and
// liveness structures.
func Fig7(suite []Benchmark) []Fig7Row {
	cfgs := Fig6Configs()
	rows := make([]Fig7Row, len(cfgs))
	for ci, cfg := range cfgs {
		row := &rows[ci]
		row.Config = cfg
		for _, b := range suite {
			per, _ := translateBatch(b, cfg.Opt)
			for _, st := range per {
				meas := st.GraphBytes + st.LiveSetBytes + st.LiveCheckBytes
				ord := st.GraphEval + st.LiveSetEval + st.LiveCheckEval
				bit := st.GraphEval + st.LiveSetBitEval + st.LiveCheckEval
				row.TotMeasured += meas
				row.TotOrdered += ord
				row.TotBitset += bit
				row.MaxMeasured = max(row.MaxMeasured, meas)
				row.MaxOrdered = max(row.MaxOrdered, ord)
				row.MaxBitset = max(row.MaxBitset, bit)
			}
		}
	}
	return rows
}

// FormatFig7 renders both memory charts, normalized to Sreedhar III.
func FormatFig7(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: memory footprint, normalized to Sreedhar III\n")
	fmt.Fprintf(&b, "%-42s %18s %18s %18s    %18s %18s %18s\n", "configuration",
		"max measured", "max ordered-eval", "max bitset-eval",
		"tot measured", "tot ordered-eval", "tot bitset-eval")
	base := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&b, "%-42s %18.3f %18.3f %18.3f    %18.3f %18.3f %18.3f\n", r.Config.Name,
			ratio(float64(r.MaxMeasured), float64(base.MaxMeasured)),
			ratio(float64(r.MaxOrdered), float64(base.MaxOrdered)),
			ratio(float64(r.MaxBitset), float64(base.MaxBitset)),
			ratio(float64(r.TotMeasured), float64(base.TotMeasured)),
			ratio(float64(r.TotOrdered), float64(base.TotOrdered)),
			ratio(float64(r.TotBitset), float64(base.TotBitset)))
	}
	fmt.Fprintf(&b, "absolute totals (bytes): measured=%d ordered-eval=%d bitset-eval=%d (Sreedhar III)\n",
		base.TotMeasured, base.TotOrdered, base.TotBitset)
	return b.String()
}
