package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/outofssa"
	"repro/outofssa/serve"
	"repro/outofssa/serve/client"
)

// serve-mixed drives a serve.Server over loopback HTTP through the typed
// client, open-loop, with single-function /v1/translate requests of which
// about half repeat a recently sent function (memo hits) and half are
// never-seen functions (full translations, stores, evictions).

// Fixed offered rates of the latency metrics: about a fifth and two fifths
// of the max_rps this benchmark first measured on a 2-core x86-64 guest,
// kept fixed so later changes are compared at the same load. Nearer to
// capacity a slow stretch of a shared host saturates the server, and the
// p50 would measure the host.
const (
	rateLow  = 600.0
	rateHigh = 1200.0

	// The fixed-rate windows are cut into rounds of one low-rate and one
	// high-rate chunk; each latency figure is the median over the rounds of
	// the chunk's figure, so a stretch of time in which the shared machine
	// is slow moves one round, not the run. A chunk holds 1200 requests, so
	// its p99 has twelve beyond it.
	lowChunk  = 2.0 // seconds
	highChunk = 1.0

	// The max_rps search is an up-down staircase of probeSeconds probes:
	// a passing probe raises the rate by the step factor, a failing one
	// lowers it, and every reversal halves the step (in log space) down to
	// searchResolution. max_rps is the median of the rates offered at that
	// resolution, which the staircase keeps within a step of the highest
	// passing rate. One wrong verdict moves it a step, not the result.
	searchStart      = 1800.0
	searchCoarse     = 1.25
	searchResolution = 1.05
	probeSeconds     = 0.5
	// abortLate stops a probe whose generator has fallen this far behind:
	// the rate has already failed.
	abortLate = 250 * time.Millisecond
)

// serveSchedule splits a run's window.
type serveSchedule struct {
	warm   float64 // seconds of warm-up at the high rate
	rounds int     // low/high chunk pairs
	probes int     // staircase probes
}

func scheduleFor(seconds float64) serveSchedule {
	rounds := max(int(0.6*seconds/(lowChunk+highChunk)), 1)
	probes := max(int(0.3*seconds/(probeSeconds+probePause.Seconds())), 4)
	return serveSchedule{warm: 0.07 * seconds, rounds: rounds, probes: probes}
}

// probePause lets a probe's queue drain before the next one.
const probePause = 100 * time.Millisecond

// fixedRequests is the number of stream positions the fixed-rate phases
// consume; they come first, so the distinct inputs they send depend on the
// seed alone.
func (s serveSchedule) fixedRequests() int {
	return int(rateHigh*s.warm) + s.rounds*(int(rateLow*lowChunk)+int(rateHigh*highChunk))
}

// searchRequests is how many stream positions the search is sized for;
// beyond them it wraps around its own segment, whose functions the memo
// has long evicted by then.
const searchRequests = 4000

// served is what the clients received for one input function.
type served struct {
	outputs []string // distinct output texts
	stats   *outofssa.Stats
}

type serveWorkload struct {
	c     *serveCorpus
	snap  []byte // memo snapshot of the warm set's translations
	nproc int
	sched serveSchedule

	mu       sync.Mutex
	got      []served
	retained atomic.Int64 // bytes of output text held for the check
	memoHits atomic.Int64

	staircase string // the search's probes, for the report
}

// newServeWorkload generates the corpus for a window of seconds and
// builds the boot snapshot.
func newServeWorkload(seed int64, seconds float64, nproc int) (*serveWorkload, error) {
	sched := scheduleFor(seconds)
	c, warm := newServeCorpus(seed, serveWarm, (sched.fixedRequests()+searchRequests)/2+1)
	return buildServeWorkload(c, warm, sched, nproc)
}

// buildServeWorkload builds the boot snapshot: the warm functions
// translated into a memo of the server's bound, serialized.
func buildServeWorkload(c *serveCorpus, warm []*outofssa.Func, sched serveSchedule, nproc int) (*serveWorkload, error) {
	memo := outofssa.NewMemo(serveMemoEntries, 0)
	tr, err := outofssa.New(outofssa.WithMemo(memo))
	if err != nil {
		return nil, err
	}
	if _, err := tr.TranslateAll(context.Background(), warm); err != nil {
		return nil, fmt.Errorf("building the boot snapshot: %w", err)
	}
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		return nil, err
	}
	return &serveWorkload{c: c, snap: buf.Bytes(), nproc: nproc, sched: sched, got: make([]served, len(c.src))}, nil
}

// streamAt maps a request number to an input: the fixed phases read the
// stream in order; the search wraps around the rest of it.
func (w *serveWorkload) streamAt(pos int) int {
	fixed := w.sched.fixedRequests()
	if pos >= len(w.c.stream) {
		pos = fixed + (pos-fixed)%(len(w.c.stream)-fixed)
	}
	return w.c.stream[pos]
}

// system is one booted server with its listener and client.
type system struct {
	hs     *http.Server
	done   chan struct{}
	tr     *http.Transport
	client *client.Client
	loadMs float64
}

// idKey carries a traced request's id from the sender to the tagging
// RoundTripper.
type idKey struct{}

const idHeader = "X-Perfbench-Id"

// tagging sets the id header on requests whose context carries one.
type tagging struct{ base http.RoundTripper }

func (t tagging) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(idKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(idHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// intervals records one span per traced request id, from the goroutines
// that serve or send requests.
type intervals struct {
	epoch time.Time
	mu    sync.Mutex
	spans map[int64][2]int64
}

func newIntervals(epoch time.Time) *intervals {
	return &intervals{epoch: epoch, spans: map[int64][2]int64{}}
}

func (iv *intervals) now() int64 { return int64(time.Since(iv.epoch)) }

func (iv *intervals) record(id, start, end int64) {
	iv.mu.Lock()
	iv.spans[id] = [2]int64{start, end}
	iv.mu.Unlock()
}

// wrap records the span of every tagged request around next.ServeHTTP, in
// a wrapping handler the benchmark owns; untagged requests pass straight
// through. iv may be nil: nothing is recorded.
func (iv *intervals) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		tag := r.Header.Get(idHeader)
		if iv == nil || tag == "" {
			next.ServeHTTP(rw, r)
			return
		}
		start := iv.now()
		next.ServeHTTP(rw, r)
		if id, err := strconv.ParseInt(tag, 10, 64); err == nil {
			iv.record(id, start, iv.now())
		}
	})
}

// boot builds the system: serve.New, the memo Load, the listener, and the
// first response. The handler is always wrapped, so the traced and the
// untraced runs serve through the same code.
func (w *serveWorkload) boot(ctx context.Context, handler *intervals) (*system, error) {
	srv := serve.New(serve.Config{MemoEntries: serveMemoEntries})
	t0 := time.Now()
	if _, skipped, err := srv.Memo().Load(bytes.NewReader(w.snap)); err != nil || skipped > 0 {
		return nil, fmt.Errorf("loading the memo snapshot: %d lines skipped: %v", skipped, err)
	}
	sys := &system{loadMs: ms(time.Since(t0)), done: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sys.hs = &http.Server{Handler: handler.wrap(srv)}
	go func() {
		defer close(sys.done)
		_ = sys.hs.Serve(ln) // returns http.ErrServerClosed after shutdown
	}()
	sys.tr = &http.Transport{MaxConnsPerHost: w.nproc, MaxIdleConnsPerHost: w.nproc, DisableCompression: true}
	if err := guardLoad(w.nproc, sys.tr.MaxConnsPerHost, w.nproc); err != nil {
		sys.stop()
		return nil, err
	}
	sys.client = client.New("http://"+ln.Addr().String(), &http.Client{Transport: tagging{sys.tr}})
	if _, err := sys.client.Translate(ctx, serve.TranslateRequest{Source: w.c.src[0]}); err != nil {
		sys.stop()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return sys, nil
}

func (s *system) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout here leaves nothing running: Close follows
	_ = s.hs.Close()
	<-s.done
	s.tr.CloseIdleConnections()
}

// setupRounds is how many times a run boots the system; setup_s is the
// median.
const setupRounds = 5

// setup boots the system setupRounds times; setup_s is the median and the
// last system is the one measured.
func (w *serveWorkload) setup(ctx context.Context, handler *intervals) (*system, float64, float64, error) {
	var times, loads []float64
	var sys *system
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.stop()
		}
		t0 := time.Now()
		var err error
		if sys, err = w.boot(ctx, handler); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		loads = append(loads, sys.loadMs)
	}
	return sys, median(times), median(loads), nil
}

// sender returns the load generator's send function for requests
// numbered from first; with spans it tags each request and records the
// client span.
func (w *serveWorkload) sender(sys *system, first int, cs *intervals) func(ctx context.Context, k int) bool {
	return func(ctx context.Context, k int) bool {
		idx := w.streamAt(first + k)
		var start int64
		if cs != nil {
			ctx = context.WithValue(ctx, idKey{}, int64(first+k))
			start = cs.now()
		}
		resp, err := sys.client.Translate(ctx, serve.TranslateRequest{Source: w.c.src[idx]})
		if cs != nil {
			cs.record(int64(first+k), start, cs.now())
		}
		if err != nil {
			return false
		}
		w.record(idx, resp)
		return true
	}
}

// record keeps each distinct output text for the check.
func (w *serveWorkload) record(idx int, resp *serve.TranslateResponse) {
	if resp.MemoHit {
		w.memoHits.Add(1)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	g := &w.got[idx]
	if g.stats == nil {
		g.stats = resp.Stats
	}
	for _, o := range g.outputs {
		if o == resp.Output {
			return
		}
	}
	g.outputs = append(g.outputs, resp.Output)
	w.retained.Add(int64(len(resp.Output)))
}

// phase runs one open-loop window over the next stream positions.
func (w *serveWorkload) phase(ctx context.Context, sys *system, pos *int, rate, seconds float64, cs *intervals) windowStats {
	n := int(rate * seconds)
	win := runOpenLoop(ctx, w.nproc, rate, n, abortLate, w.sender(sys, *pos, cs))
	*pos += n
	return win.stats()
}

// searchMaxRPS runs the staircase and returns max_rps.
func (w *serveWorkload) searchMaxRPS(ctx context.Context, sys *system, pos *int, rep *report) float64 {
	r, step := searchStart, searchCoarse
	var fine []float64
	best := 0.0 // the highest passing rate, should the staircase never reverse
	last := 0   // verdict of the previous probe: 0 none, 1 pass, -1 fail
	var path strings.Builder
	defer func() { w.staircase = path.String() }()
	for i := 0; i < w.sched.probes; i++ {
		s := w.phase(ctx, sys, pos, r, probeSeconds, nil)
		rep.addWindow(s)
		time.Sleep(probePause)
		verdict, word := -1, "fail"
		if s.meets() {
			verdict, word = 1, "pass"
			best = math.Max(best, r)
		}
		fmt.Fprintf(&path, " %.0f:%s(p99 %.1f", r, word, s.p99)
		if s.backlogGrowing {
			path.WriteString(" growing")
		}
		path.WriteString(")")
		if last != 0 && verdict != last {
			step = math.Max(math.Sqrt(step), searchResolution)
		}
		if step == searchResolution {
			fine = append(fine, r)
		}
		last = verdict
		if verdict > 0 {
			r *= step
		} else {
			r /= step
		}
	}
	if len(fine) == 0 {
		return best
	}
	return median(fine)
}

// rounds runs n rounds of fixed-rate chunks and returns the per-chunk
// figures of the low and the high rate.
func (w *serveWorkload) rounds(ctx context.Context, sys *system, n int, pos *int, rep *report, cs *intervals) (low, high []windowStats) {
	for i := 0; i < n; i++ {
		l := w.phase(ctx, sys, pos, rateLow, lowChunk, cs)
		h := w.phase(ctx, sys, pos, rateHigh, highChunk, cs)
		rep.addWindow(l)
		rep.addWindow(h)
		low, high = append(low, l), append(high, h)
	}
	return low, high
}

// chunkMedian is the median over chunks of one figure.
func chunkMedian(ws []windowStats, f func(windowStats) float64) float64 {
	var xs []float64
	for _, s := range ws {
		xs = append(xs, f(s))
	}
	return median(xs)
}

// check verifies every distinct served output, re-parsed from the
// response text, against its input, on nproc goroutines.
func (w *serveWorkload) check(rep *report) {
	type job struct {
		idx int
		out string
	}
	var jobs []job
	for idx, g := range w.got {
		for _, o := range g.outputs {
			jobs = append(jobs, job{idx, o})
		}
	}
	tallies := make([]checkTally, w.nproc)
	var wg sync.WaitGroup
	for g := range tallies {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += len(tallies) {
				tallies[g].addText(w.c.src[jobs[i].idx], jobs[i].out)
			}
		}(g)
	}
	wg.Wait()
	for _, t := range tallies {
		rep.checked += t.checked
		rep.wrong += t.wrong
		rep.unchecked += t.unchecked
		rep.noteErr(t.first)
	}
}

// quality sums the translation counters over the distinct inputs of the
// fixed-rate phases and returns their mean input blocks per request.
func (w *serveWorkload) quality(rep *report) float64 {
	seen := map[int]bool{}
	var agg outofssa.Stats
	blocks := 0
	for pos := 0; pos < w.sched.fixedRequests(); pos++ {
		idx := w.c.stream[pos]
		blocks += w.c.blocks[idx]
		if seen[idx] || w.got[idx].stats == nil {
			continue
		}
		seen[idx] = true
		agg.Accumulate(w.got[idx].stats)
	}
	rep.setQuality(&agg)
	return float64(blocks) / float64(w.sched.fixedRequests())
}

// runServeWorkload is the untraced run: boot, warm-up, the two fixed-rate
// windows, the max_rps search, then the check.
func runServeWorkload(ctx context.Context, w *serveWorkload, rep *report) error {
	base := liveHeap()
	sys, setup, _, err := w.setup(ctx, nil)
	if err != nil {
		return err
	}
	defer sys.stop()
	rep.set("setup_s", setup)

	pos := 0
	rep.addWindow(w.phase(ctx, sys, &pos, rateHigh, w.sched.warm, nil))
	heap := startHeapSampler(func() float64 { return float64(w.retained.Load()) })
	rt := readRuntime()
	cpu0 := cpuSeconds()
	low, high := w.rounds(ctx, sys, w.sched.rounds, &pos, rep, nil)
	cpu := cpuSeconds() - cpu0
	rtd := runtimeSince(rt)
	maxRPS := w.searchMaxRPS(ctx, sys, &pos, rep)
	peak := heap.finish()

	p50 := func(s windowStats) float64 { return s.p50 }
	p99 := func(s windowStats) float64 { return s.p99 }
	rep.set("p50_ms_low", chunkMedian(low, p50))
	rep.set("p99_ms_low", chunkMedian(low, p99))
	rep.set("p50_ms_high", chunkMedian(high, p50))
	rep.set("p99_ms_high", chunkMedian(high, p99))
	rep.set("max_rps", maxRPS)
	rep.set("heap_peak_mb", (peak-base)/mbytesUnit)
	meanBlocks := w.quality(rep)
	reqs := float64(w.sched.fixedRequests() - int(rateHigh*w.sched.warm))
	// Served blocks per second of the process's CPU time, times nproc: the
	// rate the machine sustains when no other tenant takes its cores.
	rep.set("blocks_per_s", reqs*meanBlocks/cpu*float64(w.nproc))
	w.loadgenFigures(rep, high)
	rep.set("runtime.alloc_bytes_per_req", rtd.allocBytes/reqs)
	rep.set("runtime.alloc_bytes_per_block", rtd.allocBytes/(reqs*meanBlocks))
	rep.set("runtime.gc_cycles", rtd.gcCycles)
	rep.set("runtime.gc_pause_ms_p99", rtd.pauseP99Sec*1e3)
	rep.notef("staircase:%s", w.staircase)
	for i := range low {
		rep.notef("round %d: %.0f/s p50 %.2f p99 %.2f ms; %.0f/s p50 %.2f p99 %.2f ms", i, rateLow, low[i].p50, low[i].p99, rateHigh, high[i].p50, high[i].p99)
	}
	rep.notef("requests: %d rounds of %.0f s at %.0f/s and %.0f s at %.0f/s, %d staircase probes to %.0f/s; %d memo hits seen by clients",
		w.sched.rounds, lowChunk, rateLow, highChunk, rateHigh, w.sched.probes, maxRPS, w.memoHits.Load())
	w.check(rep)
	return nil
}

// loadgenFigures reports how late the generator ran at the high rate.
func (w *serveWorkload) loadgenFigures(rep *report, high []windowStats) {
	rep.set("loadgen.late_ms_p99", chunkMedian(high, func(s windowStats) float64 { return s.lateP99 }))
	rep.set("loadgen.backlog", chunkMedian(high, func(s windowStats) float64 { return float64(s.backlogMax) }))
}

// ------------------------------------------------------------ traced run

// runServeTraced measures untraced rounds and then traced rounds of the
// fixed-rate chunks (their low-rate p50 difference is the tracing
// overhead), then replays the traced requests' bodies in-process through
// decode, parse, the pass list with a memo, print and encode, with spans
// around each layer.
func runServeTraced(ctx context.Context, w *serveWorkload, spanPath string, rep *report) error {
	epoch := time.Now()
	handler := newIntervals(epoch)
	sys, _, loadMs, err := w.setup(ctx, handler)
	if err != nil {
		return err
	}
	defer sys.stop()
	rep.set("memo.load_ms", loadMs)

	pos := 0
	rep.addWindow(w.phase(ctx, sys, &pos, rateHigh, w.sched.warm, nil))
	before, err := sys.client.Stats(ctx)
	if err != nil {
		return err
	}
	half := max(w.sched.rounds/2, 1)
	rt := readRuntime()
	plainLow, plainHigh := w.rounds(ctx, sys, half, &pos, rep, nil)
	rtd := runtimeSince(rt)
	cs := newIntervals(epoch)
	tracedFrom := pos
	tracedLow, _ := w.rounds(ctx, sys, half, &pos, rep, cs)
	tracedTo := pos
	after, err := sys.client.Stats(ctx)
	if err != nil {
		return err
	}

	memoLookups := float64(after.Memo.Hits + after.Memo.Misses - before.Memo.Hits - before.Memo.Misses)
	rep.set("memo.hit_rate", float64(after.Memo.Hits-before.Memo.Hits)/memoLookups)
	rep.set("memo.evictions", float64(after.Memo.Evictions-before.Memo.Evictions))
	w.loadgenFigures(rep, plainHigh)
	reqs := float64(half) * (rateLow*lowChunk + rateHigh*highChunk)
	rep.set("runtime.alloc_bytes_per_req", rtd.allocBytes/reqs)
	rep.set("runtime.gc_cycles", rtd.gcCycles)
	rep.set("runtime.gc_pause_ms_p99", rtd.pauseP99Sec*1e3)
	p50 := func(s windowStats) float64 { return s.p50 }
	rep.set("trace.overhead_frac", chunkMedian(tracedLow, p50)/chunkMedian(plainLow, p50)-1)

	// Client and handler spans of the traced window: the client span is
	// the root, the handler span its child.
	wire := newSpanBuf(epoch)
	var handlerMs, transportMs []float64
	var clientNs, handlerNs int64
	for id := int64(tracedFrom); id < int64(tracedTo); id++ {
		c, okC := cs.spans[id]
		h, okH := handler.spans[id]
		if !okC || !okH {
			continue
		}
		root := wire.add(id, -1, "client", c[0], c[1])
		wire.add(id, root, "serve.handler", h[0], h[1])
		handlerMs = append(handlerMs, float64(h[1]-h[0])/1e6)
		transportMs = append(transportMs, float64((c[1]-c[0])-(h[1]-h[0]))/1e6)
		clientNs += c[1] - c[0]
		handlerNs += h[1] - h[0]
	}
	rep.set("serve.handler_ms_p50", quantile(handlerMs, 0.5))
	rep.set("serve.handler_ms_p99", quantile(handlerMs, 0.99))
	rep.set("serve.transport_ms_p50", quantile(transportMs, 0.5))
	rep.set("trace.child_frac.client", float64(handlerNs)/float64(clientNs))

	replay, replayNs, misses, err := w.replay(epoch, tracedFrom, tracedTo)
	if err != nil {
		return err
	}
	bufs := []*spanBuf{wire, replay}
	layers := aggregate(bufs)
	n := float64(tracedTo - tracedFrom)
	perReq := func(name string, scale float64) float64 {
		if l := layers[name]; l != nil {
			return float64(l.selfNs()) / scale / n
		}
		return 0
	}
	rep.set("ir.parse_us", perReq("ir.parse", 1e3))
	rep.set("ir.print_us", perReq("ir.print", 1e3))
	rep.set("serve.json_us", perReq("serve.json.decode", 1e3)+perReq("serve.json.encode", 1e3))
	rep.set("memo.fingerprint_us", perReq("memo.fingerprint", 1e3))
	if l := layers["memo.hit"]; l != nil {
		rep.set("memo.hit_us", float64(l.selfNs())/1e3/float64(l.count))
	}
	for _, name := range stepLayers {
		rep.set(name+"_ms", perReq(name, 1e6))
	}
	for k := analysis.Kind(0); k < analysis.NumKinds; k++ {
		rep.set("analysis.misses_per_fn."+k.String(), float64(misses[k])/n)
	}
	cacheLookups := float64(after.Cache.Hits + after.Cache.Misses - before.Cache.Hits - before.Cache.Misses)
	rep.set("analysis.hit_rate", float64(after.Cache.Hits-before.Cache.Hits)/cacheLookups)
	rep.set("serve.attributed_frac", float64(replayNs)/float64(handlerNs))
	rep.set("trace.child_frac.root", layers["request"].childFrac())
	meanBlocks := w.quality(rep)
	rep.set("runtime.alloc_bytes_per_block", rtd.allocBytes/(reqs*meanBlocks))
	w.check(rep)
	return rep.writeSpans(spanPath, bufs, layers)
}

// replay re-runs the bodies of stream positions [from, to) in order on one
// goroutine, each through the server's layers as the benchmark can call
// them. Its memo is booted from the same snapshot and first fed the
// positions before from, so it hits and misses as the server did.
func (w *serveWorkload) replay(epoch time.Time, from, to int) (buf *spanBuf, total int64, misses [analysis.NumKinds]uint64, err error) {
	memo := core.NewMemo(serveMemoEntries, 0)
	if _, _, err := memo.LoadSnapshot(bytes.NewReader(w.snap)); err != nil {
		return nil, 0, misses, err
	}
	passes := tracedPasses(memo)
	buf = newSpanBuf(epoch)
	for pos := 0; pos < to; pos++ {
		if pos < from {
			// Bring the replay memo to the state the server's had.
			fns, err := outofssa.ParseAll(w.c.src[w.streamAt(pos)])
			if err != nil {
				return nil, 0, misses, err
			}
			if _, err := stepFunc(newSpanBuf(epoch), 0, -1, fns[0], passes, memo, nil); err != nil {
				return nil, 0, misses, err
			}
			continue
		}
		body, err := json.Marshal(serve.TranslateRequest{Source: w.c.src[w.streamAt(pos)]})
		if err != nil {
			return nil, 0, misses, err
		}
		id := int64(pos)
		root := buf.open(id, -1, "request")
		s := buf.open(id, root, "serve.json.decode")
		var req serve.TranslateRequest
		err = json.Unmarshal(body, &req)
		buf.close(s)
		if err != nil {
			return nil, 0, misses, err
		}
		s = buf.open(id, root, "ir.parse")
		fns, err := outofssa.ParseAll(req.Source)
		buf.close(s)
		if err != nil || len(fns) != 1 {
			return nil, 0, misses, errors.Join(err, errors.New("replay: request does not hold one function"))
		}
		pctx, err := stepFunc(buf, id, root, fns[0], passes, memo, nil)
		if err != nil {
			return nil, 0, misses, err
		}
		for k := range misses {
			misses[k] += pctx.Cache.Misses[k]
		}
		s = buf.open(id, root, "ir.print")
		out := fns[0].String()
		buf.close(s)
		s = buf.open(id, root, "serve.json.encode")
		var enc bytes.Buffer
		e := json.NewEncoder(&enc)
		e.SetIndent("", "  ")
		err = e.Encode(&serve.TranslateResponse{Name: fns[0].Name, Output: out, Stats: pctx.Stats, MemoHit: pctx.MemoHit})
		buf.close(s)
		if err != nil {
			return nil, 0, misses, err
		}
		buf.close(root)
		total += buf.spans[root].end - buf.spans[root].start
	}
	return buf, total, misses, nil
}
