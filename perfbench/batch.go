package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/outofssa"
)

// The batch workloads translate whole corpora with Translator.TranslateAll
// in the default configuration, batch after batch. A run rotates through
// batchDraws corpora drawn from its seed, so one run's figures do not hinge
// on a single draw of functions.

const batchDraws = 8

type batchWorkload struct {
	draws [][]*outofssa.Func // pristine inputs, never handed to the system
	work  [][]*outofssa.Func // the inputs a batch translates in place
	nproc int
}

func newBatchWorkload(gen func(seed int64) []*outofssa.Func, seed int64, draws, nproc int) *batchWorkload {
	w := &batchWorkload{nproc: nproc}
	for d := int64(0); d < int64(draws); d++ {
		fns := gen(seed*batchDraws + d)
		w.draws = append(w.draws, fns)
		work := make([]*outofssa.Func, len(fns))
		for i, f := range fns {
			work[i] = outofssa.Clone(f)
		}
		w.work = append(w.work, work)
	}
	return w
}

// restore copies draw d's pristine inputs over its working copies. It
// reuses the working copies' storage, so it leaves no garbage behind for
// the next timed batch to collect.
func (w *batchWorkload) restore(d int) []*outofssa.Func {
	for i, f := range w.draws[d] {
		ir.CloneInto(w.work[d][i], f)
	}
	return w.work[d]
}

func (w *batchWorkload) blocks(d int) int {
	n := 0
	for _, f := range w.draws[d] {
		n += len(f.Blocks)
	}
	return n
}

func newTranslator(workers int) (*outofssa.Translator, error) {
	return outofssa.New(outofssa.WithWorkers(workers))
}

// phaseMs is the translation time the system reports for one function.
func phaseMs(st *outofssa.Stats) float64 {
	return float64(st.InsertNanos+st.AnalyzeNanos+st.CoalesceNanos+st.RewriteNanos) / 1e6
}

// checkBatches translates every draw once outside the timed window, checks
// every output independently, and returns the per-function statistics
// later batches must reproduce.
func (w *batchWorkload) checkBatches(ctx context.Context, tr *outofssa.Translator, rep *report) ([][]outofssa.Stats, error) {
	var tally checkTally
	ref := make([][]outofssa.Stats, len(w.draws))
	var agg outofssa.Stats
	for d, fns := range w.draws {
		outs := make([]*outofssa.Func, len(fns))
		for i, f := range fns {
			outs[i] = outofssa.Clone(f)
		}
		res, err := tr.TranslateAll(ctx, outs)
		if err != nil {
			return nil, fmt.Errorf("translating draw %d: %w", d, err)
		}
		for i, f := range fns {
			tally.add(f, outs[i])
			ref[d] = append(ref[d], *res.Results[i].Stats)
		}
		agg.Accumulate(&res.Stats)
	}
	rep.checked += tally.checked
	rep.wrong += tally.wrong
	rep.unchecked += tally.unchecked
	rep.noteErr(tally.first)
	rep.setQuality(&agg)
	return ref, nil
}

// batchTimes is what the timed batches of one translator produced.
type batchTimes struct {
	blocksPerS []float64
	funcsPerS  []float64
	perFuncMs  map[[2]int][]float64 // (draw, index) → each translation's time
	phaseSecs  float64              // summed per-function phase time
	wallSecs   float64
	blocks     float64
	cache      outofssa.CacheStats
	batches    int
	attempted  int
	failed     int
	mismatched int
}

// funcLatency returns the q-quantile over distinct functions of each
// function's median translation time: the time a function waits for its
// code, with the machine's passing pauses filtered out per function.
func (bt *batchTimes) funcLatency(q float64) float64 {
	var meds []float64
	for _, xs := range bt.perFuncMs {
		meds = append(meds, median(xs))
	}
	return quantile(meds, q)
}

// timedBatches runs batches until the deadline, rotating through the
// draws, timing only TranslateAll itself.
func (w *batchWorkload) timedBatches(ctx context.Context, tr *outofssa.Translator, ref [][]outofssa.Stats, until time.Time, d *int) *batchTimes {
	bt := &batchTimes{perFuncMs: map[[2]int][]float64{}}
	for time.Now().Before(until) {
		fns := w.restore(*d)
		t0 := time.Now()
		res, _ := tr.TranslateAll(ctx, fns) // the error joins the per-function ones counted below
		wall := time.Since(t0).Seconds()
		blocks := float64(w.blocks(*d))
		bt.blocksPerS = append(bt.blocksPerS, blocks/wall)
		bt.funcsPerS = append(bt.funcsPerS, float64(len(fns))/wall)
		bt.wallSecs += wall
		bt.blocks += blocks
		bt.batches++
		for i, r := range res.Results {
			bt.attempted++
			bt.cache.Add(r.Cache)
			if r.Err != nil {
				bt.failed++
				continue
			}
			key := [2]int{*d, i}
			bt.perFuncMs[key] = append(bt.perFuncMs[key], phaseMs(r.Stats))
			bt.phaseSecs += phaseMs(r.Stats) / 1e3
			if want := ref[*d][i]; r.Stats.FinalCopies != want.FinalCopies || r.Stats.RemainingWeight != want.RemainingWeight {
				bt.mismatched++
			}
		}
		*d = (*d + 1) % len(w.draws)
	}
	return bt
}

// runBatchWorkload is the untraced run: set-up, check, warm-up, then the
// timed window split between a one-worker translator (low load: one core
// busy) and an nproc-worker one (high load: every core busy). Throughput
// comes from the high-load batches.
func runBatchWorkload(ctx context.Context, w *batchWorkload, seconds float64, rep *report) error {
	base := liveHeap()
	tr, setup, err := w.setup(ctx)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup)
	ref, err := w.checkBatches(ctx, tr, rep)
	if err != nil {
		return err
	}
	one, err := newTranslator(1)
	if err != nil {
		return err
	}
	d := 0
	w.timedBatches(ctx, tr, ref, time.Now().Add(time.Duration(seconds*0.1*1e9)), &d) // warm-up
	runtime.GC()

	heap := startHeapSampler(nil)
	rt := readRuntime()
	low := w.timedBatches(ctx, one, ref, time.Now().Add(time.Duration(seconds*0.4*1e9)), &d)
	high := w.timedBatches(ctx, tr, ref, time.Now().Add(time.Duration(seconds*0.5*1e9)), &d)
	rtd := runtimeSince(rt)
	peak := heap.finish()

	for _, bt := range []*batchTimes{low, high} {
		rep.attempted += bt.attempted
		rep.failed += bt.failed
		rep.wrong += bt.mismatched
	}
	rep.set("blocks_per_s", median(high.blocksPerS))
	rep.set("max_rps", median(high.funcsPerS))
	rep.set("p50_ms_low", low.funcLatency(0.50))
	rep.set("p99_ms_low", low.funcLatency(0.99))
	rep.set("p50_ms_high", high.funcLatency(0.50))
	rep.set("p99_ms_high", high.funcLatency(0.99))
	rep.set("heap_peak_mb", (peak-base)/mbytesUnit)
	rep.set("runtime.alloc_bytes_per_block", rtd.allocBytes/(low.blocks+high.blocks))
	rep.set("runtime.gc_cycles", rtd.gcCycles)
	rep.set("runtime.gc_pause_ms_p99", rtd.pauseP99Sec*1e3)
	rep.set("pipeline.utilization", high.phaseSecs/(float64(w.nproc)*high.wallSecs))
	rep.set("analysis.hit_rate", high.cache.HitRate())
	rep.notef("batches: %d at 1 worker, %d at %d workers, over %d distinct functions", low.batches, high.batches, w.nproc, len(high.perFuncMs))
	return nil
}

// batchSetupRounds is how many times a run builds the Translator and runs
// the first batch; setup_s is the median.
const batchSetupRounds = 9

// setup builds the Translator and runs the first batch batchSetupRounds
// times; the median is setup_s and the last Translator is the one measured.
func (w *batchWorkload) setup(ctx context.Context) (*outofssa.Translator, float64, error) {
	var tr *outofssa.Translator
	var times []float64
	for i := 0; i < batchSetupRounds; i++ {
		fns := w.restore(0)
		t0 := time.Now()
		var err error
		if tr, err = newTranslator(w.nproc); err != nil {
			return nil, 0, err
		}
		if _, err := tr.TranslateAll(ctx, fns); err != nil {
			return nil, 0, fmt.Errorf("first batch: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return tr, median(times), nil
}

// ------------------------------------------------------------ traced run

// tracedPasses is the pass list outofssa.Translator builds in the default
// configuration: strict-SSA verification, then the four out-of-SSA phases
// backed by memo (nil for none).
func tracedPasses(memo *core.Memo) []pipeline.Pass {
	return append([]pipeline.Pass{pipeline.VerifySSA()}, pipeline.OutOfSSAWithMemo(outofssa.DefaultOptions(), memo)...)
}

// passSpan names the span around each pass by the layer it exercises.
var passSpan = map[string]string{
	"verify-ssa":          "pipeline.verify",
	"out-of-ssa-insert":   "core.insert",
	"out-of-ssa-analyze":  "ssa.values",
	"out-of-ssa-coalesce": "core.coalesce",
	"out-of-ssa-rewrite":  "core.rewrite",
}

// stepLayers are the spans stepFunc records whose self time is reported as
// <name>_ms.
var stepLayers = []string{"pipeline.verify", "dom.build", "ir.defuse", "livecheck.build", "ssa.values", "core.insert", "core.coalesce", "core.rewrite"}

// cacheSpan times one analysis-cache request made just before a pass, so
// the cost of building that analysis lands in its own span.
func cacheSpan(buf *spanBuf, id int64, parent int32, name string, req func()) {
	s := buf.open(id, parent, name)
	req()
	buf.close(s)
}

// stepFunc single-steps one function through the passes, recording a span
// around every pass and around the cache requests that build dominance,
// def-use and the liveness checker. sc, when not nil, is the worker-owned
// working state the batch driver would install. It returns the pass
// context.
func stepFunc(buf *spanBuf, id int64, parent int32, f *ir.Func, passes []pipeline.Pass, m *core.Memo, sc *core.Scratch) (*pipeline.Context, error) {
	pctx := pipeline.NewContext(f)
	if sc != nil {
		pctx.Scratch = sc
		pctx.Cache.SetLivenessScratch(sc.LivenessScratch())
		defer func() {
			pctx.Scratch = nil
			pctx.Cache.SetLivenessScratch(nil)
		}()
	}
	for _, p := range passes {
		switch p.Name {
		case "verify-ssa":
			cacheSpan(buf, id, parent, "dom.build", func() { pctx.Cache.Dom() })
		case "out-of-ssa-insert":
			if m != nil {
				cacheSpan(buf, id, parent, "memo.fingerprint", func() { f.Fingerprint() })
			}
		case "out-of-ssa-analyze":
			if !pctx.MemoHit {
				cacheSpan(buf, id, parent, "dom.build", func() { pctx.Cache.Dom() })
				cacheSpan(buf, id, parent, "ir.defuse", func() { pctx.Cache.DefUse() })
				cacheSpan(buf, id, parent, "livecheck.build", func() { pctx.Cache.LiveCheck() })
			}
		}
		s := buf.open(id, parent, passSpan[p.Name])
		err := pipeline.Apply(pctx, p)
		buf.close(s)
		if p.Name == "out-of-ssa-insert" && pctx.MemoHit {
			buf.spans[s].name = "memo.hit"
		}
		if err != nil {
			return pctx, err
		}
	}
	return pctx, nil
}

// tracedBatch single-steps one batch on nproc goroutines, each with its
// own working state, as the batch driver's workers have.
func (w *batchWorkload) tracedBatch(bufs []*spanBuf, d int, nextID *int64, misses *[analysis.NumKinds]uint64) (failed int) {
	fns := w.restore(d)
	passes := tracedPasses(nil)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := range bufs {
		wg.Add(1)
		go func(buf *spanBuf) {
			defer wg.Done()
			sc := core.NewScratch()
			var local [analysis.NumKinds]uint64
			bad := 0
			for {
				i := int(next.Add(1) - 1)
				if i >= len(fns) {
					break
				}
				id := *nextID + int64(i)
				root := buf.open(id, -1, "func")
				pctx, err := stepFunc(buf, id, root, fns[i], passes, nil, sc)
				buf.close(root)
				if err != nil {
					bad++
				}
				for k := range local {
					local[k] += pctx.Cache.Misses[k]
				}
			}
			mu.Lock()
			for k := range local {
				misses[k] += local[k]
			}
			failed += bad
			mu.Unlock()
		}(bufs[g])
	}
	wg.Wait()
	*nextID += int64(len(fns))
	return failed
}

// runBatchTraced is the traced run: the first half of the window repeats
// the untraced measurement, the second half single-steps the same batches
// with spans.
func runBatchTraced(ctx context.Context, w *batchWorkload, seconds float64, spanPath string, rep *report) error {
	tr, _, err := w.setup(ctx)
	if err != nil {
		return err
	}
	ref, err := w.checkBatches(ctx, tr, rep)
	if err != nil {
		return err
	}
	d := 0
	w.timedBatches(ctx, tr, ref, time.Now().Add(time.Duration(seconds*0.1*1e9)), &d) // warm-up
	runtime.GC()
	rt := readRuntime()
	plain := w.timedBatches(ctx, tr, ref, time.Now().Add(time.Duration(seconds*0.45*1e9)), &d)
	rtd := runtimeSince(rt)
	rep.attempted += plain.attempted
	rep.failed += plain.failed
	rep.wrong += plain.mismatched

	epoch := time.Now()
	bufs := make([]*spanBuf, w.nproc)
	for i := range bufs {
		bufs[i] = newSpanBuf(epoch)
	}
	var misses [analysis.NumKinds]uint64
	var nextID int64
	var tracedBPS []float64
	fnsTraced := 0
	until := time.Now().Add(time.Duration(seconds * 0.45 * 1e9))
	batches := 0
	for time.Now().Before(until) {
		t0 := time.Now()
		failed := w.tracedBatch(bufs, d, &nextID, &misses)
		wall := time.Since(t0).Seconds()
		tracedBPS = append(tracedBPS, float64(w.blocks(d))/wall)
		rep.attempted += len(w.draws[d])
		rep.failed += failed
		fnsTraced += len(w.draws[d])
		batches++
		d = (d + 1) % len(w.draws)
	}

	layers := aggregate(bufs)
	perBatch := func(name string) float64 {
		if l := layers[name]; l != nil {
			return float64(l.selfNs()) / 1e6 / float64(batches)
		}
		return 0
	}
	for _, n := range stepLayers {
		rep.set(n+"_ms", perBatch(n))
	}
	for k := analysis.Kind(0); k < analysis.NumKinds; k++ {
		rep.set("analysis.misses_per_fn."+k.String(), float64(misses[k])/float64(fnsTraced))
	}
	rep.set("analysis.hit_rate", plain.cache.HitRate())
	rep.set("pipeline.utilization", plain.phaseSecs/(float64(w.nproc)*plain.wallSecs))
	rep.set("runtime.alloc_bytes_per_block", rtd.allocBytes/plain.blocks)
	rep.set("runtime.gc_cycles", rtd.gcCycles)
	rep.set("runtime.gc_pause_ms_p99", rtd.pauseP99Sec*1e3)
	rep.set("trace.child_frac.root", layers["func"].childFrac())
	rep.set("trace.overhead_frac", median(plain.blocksPerS)/median(tracedBPS)-1)
	return rep.writeSpans(spanPath, bufs, layers)
}
