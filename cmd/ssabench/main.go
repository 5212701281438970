// Command ssabench regenerates the paper's evaluation figures on the
// synthetic SPEC CINT2000 stand-in suite:
//
//	ssabench -fig 5           # remaining copies per coalescing strategy
//	ssabench -fig 5 -strategy sharing   # one strategy vs the Intersect baseline
//	ssabench -fig 6 -reps 3   # translation speed per machinery combination
//	ssabench -fig 7           # memory footprint per machinery combination
//	ssabench -fig all         # every paper figure (5, 6 and 7)
//
// -scale shrinks or grows the suite; -weighted adds the frequency-weighted
// companion of Figure 5; -workers sets the batch driver's worker pool for
// the untimed figures (0 = GOMAXPROCS). Figures 5 and 7 print the same
// bytes at any worker count. -cpuprofile and -memprofile write pprof
// profiles of the run:
//
//	ssabench -fig 6 -cpuprofile fig6.cpu.pprof
//	go tool pprof fig6.cpu.pprof
//
// The engine's timed benchmark is perfbench (see BENCHMARK.json); the
// deterministic counts and allocation bounds of the large-CFG corpora are
// tier-1 tests in package outofssa/bench.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/cmd/internal/profileflags"
	"repro/outofssa"
	"repro/outofssa/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 5, 6, 7, or all")
	scale := flag.Float64("scale", 1, "workload scale factor")
	reps := flag.Int("reps", 3, "timing repetitions for figure 6")
	weighted := flag.Bool("weighted", false, "also print the frequency-weighted figure 5 table")
	workers := flag.Int("workers", 0, "pipeline batch workers for figures 5 and 7 (0 = GOMAXPROCS)")
	strategy := flag.String("strategy", "all",
		"restrict figure 5 to one coalescing strategy: all, or one of "+strings.Join(outofssa.StrategyNames(), "|"))
	profileflags.Register()
	flag.Parse()

	strategies := outofssa.Strategies
	if *strategy != "all" {
		s, err := outofssa.ParseStrategy(*strategy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
			os.Exit(2)
		}
		strategies = []outofssa.Strategy{s}
	}

	bench.Workers = *workers
	os.Exit(run(*fig, *scale, *reps, *weighted, strategies))
}

// run dispatches the figure and returns the process exit code. It exists
// (instead of os.Exit calls inside the figure functions) so the deferred
// profile writers always flush.
func run(fig string, scale float64, reps int, weighted bool, strategies []outofssa.Strategy) int {
	stop, err := profileflags.Start()
	if err != nil {
		fmt.Fprintf(os.Stderr, "ssabench: %v\n", err)
		return 1
	}
	defer stop()

	suite := bench.Suite(scale)
	total := 0
	for _, b := range suite {
		total += len(b.Funcs)
	}
	fmt.Printf("suite: %d benchmarks, %d functions (scale %g)\n\n", len(suite), total, scale)

	switch fig {
	case "5":
		fig5(suite, strategies, weighted)
	case "6":
		fig6(suite, reps)
	case "7":
		fig7(suite)
	case "all":
		fig5(suite, strategies, weighted)
		fmt.Println()
		fig6(suite, reps)
		fmt.Println()
		fig7(suite)
	default:
		fmt.Fprintf(os.Stderr, "ssabench: unknown figure %q\n", fig)
		return 2
	}
	return 0
}

func fig5(suite []bench.Benchmark, strategies []outofssa.Strategy, weighted bool) {
	rows := bench.Fig5For(suite, strategies)
	fmt.Print(bench.FormatFig5(suite, rows, false))
	if weighted {
		fmt.Println()
		fmt.Print(bench.FormatFig5(suite, rows, true))
	}
}

func fig6(suite []bench.Benchmark, reps int) {
	fmt.Print(bench.FormatFig6(suite, bench.Fig6(suite, reps)))
}

func fig7(suite []bench.Benchmark) {
	fmt.Print(bench.FormatFig7(bench.Fig7(suite)))
}
