package main

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ir"
	"repro/outofssa"
	"repro/outofssa/bench"
)

// counts returns the deterministic figures of translating w's draws with
// the given number of workers, as the benchmark reports them.
func counts(t *testing.T, w *batchWorkload, workers int) [4]float64 {
	t.Helper()
	tr, err := newTranslator(workers)
	if err != nil {
		t.Fatal(err)
	}
	rep := &report{vals: map[string]float64{}}
	if _, err := w.checkBatches(context.Background(), tr, rep); err != nil {
		t.Fatal(err)
	}
	if rep.wrong != 0 {
		t.Fatalf("%d wrong outputs", rep.wrong)
	}
	return [4]float64{rep.vals["copies_weighted"], rep.vals["final_copies"],
		rep.vals["coalesce.intersection_tests"], rep.vals["parcopy.cycle_copies"]}
}

func fingerprints(fns []*outofssa.Func) []ir.Fingerprint {
	var fps []ir.Fingerprint
	for _, f := range fns {
		fps = append(fps, f.Fingerprint())
	}
	return fps
}

// The tests translate part of each batch corpus, so they stay fast under
// the race detector: a quarter of the suite, and one function of each large
// profile, which still carries swap cycles.
func suitePart(seed int64) []*outofssa.Func { return suiteCorpus(seed)[:40] }

func largePair(seed int64) []*outofssa.Func {
	fns := largeCorpus(seed)
	return []*outofssa.Func{fns[0], fns[4]}
}

// The same seed twice gives the same figures: the second run of a workload
// built afresh from the seed matches the first.
func TestBatchSameSeedSameCounts(t *testing.T) {
	a := counts(t, newBatchWorkload(suitePart, 3, 1, 2), 2)
	b := counts(t, newBatchWorkload(suitePart, 3, 1, 2), 2)
	if a != b {
		t.Fatalf("seed 3 gave %v, then %v", a, b)
	}
}

func TestBatchCountsDeterministic(t *testing.T) {
	nproc := max(runtime.NumCPU(), 2)
	for name, gen := range map[string]func(int64) []*outofssa.Func{"suite": suitePart, "large": largePair} {
		w := newBatchWorkload(gen, 7, 1, nproc)
		a := counts(t, w, 1)
		b := counts(t, w, nproc)
		if a != b {
			t.Errorf("%s: seed 7 gives %v at 1 worker but %v at %d workers", name, a, b, nproc)
		}
		if name == "large" && a[3] == 0 {
			t.Errorf("large: no cycle-breaking copies; the swap profile lost its teeth")
		}
		if slices.Equal(fingerprints(w.draws[0]), fingerprints(gen(8*batchDraws))) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", name)
		}
	}
}

func TestSuiteSeedZeroIsBenchSuite(t *testing.T) {
	var want []*outofssa.Func
	for _, b := range bench.Suite(1) {
		want = append(want, b.Funcs...)
	}
	if !slices.Equal(fingerprints(suiteCorpus(0)), fingerprints(want)) {
		t.Fatal("seed 0 no longer reproduces bench.Suite(1)")
	}
}

func TestServeCorpusDeterministic(t *testing.T) {
	const warm = serveRecent + 16
	a, _ := newServeCorpus(5, warm, 200)
	b, _ := newServeCorpus(5, warm, 200)
	c, _ := newServeCorpus(6, warm, 200)
	if !slices.Equal(a.src, b.src) || !slices.Equal(a.stream, b.stream) {
		t.Fatal("one seed generated two different request streams")
	}
	if slices.Equal(a.src, c.src) {
		t.Fatal("seeds 5 and 6 generate the same functions")
	}
	repeats := 0
	seen := map[int]bool{}
	for _, idx := range a.stream {
		if idx < warm || seen[idx] {
			repeats++
		}
		seen[idx] = true
	}
	if f := float64(repeats) / float64(len(a.stream)); f < 0.3 || f > 0.7 {
		t.Fatalf("%.2f of the stream repeats a function; want about half", f)
	}
}
