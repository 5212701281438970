// Package serve turns the out-of-SSA engine into a long-lived service: a
// Server wraps outofssa.Translator behind an HTTP+JSON API with per-request
// strategy/options, NDJSON-streamed batch results in completion order,
// admission control with backpressure (bounded in-flight slots, bounded
// queue, 429 + Retry-After on overflow), per-request deadlines, graceful
// drain, and a /v1/stats surface exposing the paper's Figure 5-style
// counters, analysis-cache hit rates, and serving-latency quantiles.
//
//	POST /v1/translate  one function  → JSON TranslateResponse
//	POST /v1/batch      many functions → NDJSON BatchItem*, BatchSummary
//	GET  /v1/stats      → JSON StatsResponse
//	GET  /healthz       → 200 (503 while draining)
//
// Request bodies are either a JSON TranslateRequest or — for curl-ability —
// the raw textual IR with options as query parameters. Client disconnects
// propagate: the request context cancels the translation at its next pass
// boundary (single functions) or stops the batch driver from dispatching
// further functions (batches), exactly the ctx plumbing outofssa.Translate
// and Stream already honour.
//
// The companion package serve/client is the typed Go client; cmd/ssad is
// the daemon around this package, and perfbench's serve-mixed workload
// drives it with open-loop load.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/outofssa"
)

// Failpoints, one per handler stage. Placement contract: err-kind faults
// fire before the request's terminal bucket is counted (the injection site
// does its own accounting), and panic-kind faults fire only where no
// terminal bucket has been counted yet, so the isolation middleware's
// Panicked classification keeps the books balanced.
var (
	fpDecode    = faults.Register("serve.decode")
	fpTranslate = faults.Register("serve.translate")
	fpEncode    = faults.Register("serve.encode")
	fpStats     = faults.Register("serve.stats")
)

// Config tunes a Server; the zero value selects every default.
type Config struct {
	// MaxInFlight bounds concurrently admitted requests (a batch counts as
	// one — its internal parallelism is BatchWorkers). <= 0 selects
	// GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot before the server sheds
	// load with 429; 0 selects 4 × MaxInFlight, negative means no queue at
	// all (reject the moment the in-flight slots are taken).
	MaxQueue int
	// DefaultTimeout is the per-request deadline when the request names
	// none; <= 0 selects 30s.
	DefaultTimeout time.Duration
	// MaxTimeout caps any requested deadline; <= 0 selects 5m.
	MaxTimeout time.Duration
	// BatchWorkers is the worker-pool size each /v1/batch request
	// translates on; <= 0 selects GOMAXPROCS (per request — combined with
	// MaxInFlight this bounds total parallelism).
	BatchWorkers int
	// MaxRequestBytes caps request bodies; <= 0 selects 16 MiB.
	MaxRequestBytes int64
	// MemoEntries bounds the server's shared translation memo (structurally
	// identical inputs translate once; see outofssa.NewMemo). 0 selects the
	// memo default (4096 entries); negative disables memoization entirely.
	MemoEntries int
	// MemoBytes bounds the memo's retained output bytes (approximate); 0
	// selects the memo default (256 MiB). Ignored when MemoEntries is
	// negative.
	MemoBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	case c.MaxQueue == 0:
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 16 << 20
	}
	return c
}

// Server is the translation service. It is an http.Handler; New is the
// only constructor. A Server is safe for concurrent use and designed to
// live for the process's lifetime.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	gate     *gate
	stats    serverStats
	start    time.Time
	draining atomic.Bool

	// memo is the server-wide translation memo, shared by every request's
	// translator (nil when Config.MemoEntries is negative). Entries are keyed
	// by fingerprint + machinery options, so requests with different
	// strategies or toggles never observe each other's results.
	memo *outofssa.Memo

	// holdForTest, when non-nil, blocks every admitted request until the
	// channel is closed — the backpressure tests use it to pin the
	// in-flight slots deterministically.
	holdForTest chan struct{}
}

// New builds a Server from cfg (zero value for defaults).
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), start: time.Now()}
	s.gate = newGate(s.cfg.MaxInFlight, s.cfg.MaxQueue)
	if s.cfg.MemoEntries >= 0 {
		s.memo = outofssa.NewMemo(s.cfg.MemoEntries, s.cfg.MemoBytes)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/translate", s.recovering(true, s.handleTranslate))
	s.mux.HandleFunc("POST /v1/batch", s.recovering(true, s.handleBatch))
	s.mux.HandleFunc("GET /v1/stats", s.recovering(false, s.handleStats))
	s.mux.HandleFunc("GET /healthz", s.recovering(false, s.handleHealth))
	return s
}

// Memo returns the server-wide translation memo, or nil when memoization
// is disabled. The daemon uses it to persist the memo across restarts
// (snapshot on drain, load on boot).
func (s *Server) Memo() *outofssa.Memo { return s.memo }

// Config returns the server's configuration after defaulting.
func (s *Server) Config() Config { return s.cfg }

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain puts the server into drain mode: new work is refused with 503 +
// Retry-After while requests already admitted run to completion. The
// daemon calls it on SIGTERM before http.Server.Shutdown, so a load
// balancer sees the instance refuse crisply instead of queueing doomed
// work.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// AdminHandler returns the opt-in admin surface: /debug/pprof/* and a
// duplicate /v1/stats. The daemon binds it to a separate (typically
// loopback-only) port so profiling is never exposed on the serving
// address.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// ------------------------------------------------------------ panic fences

// statusWriter tracks whether a handler already wrote a response, so the
// panic fence knows whether a 500 can still go on the wire. Unwrap exposes
// the underlying writer to http.NewResponseController (the batch handler's
// Flush must keep working through the wrapper).
type statusWriter struct {
	http.ResponseWriter
	wrote bool
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.wrote = true
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(p)
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// recovering is the handler-level panic isolation: a panic escaping h —
// a bug in the engine, or an injected fault — is contained to this request
// instead of killing the daemon. The recovered request gets a typed 500
// wire error when nothing has been written yet, panic_total always ticks,
// and countReq marks the translate/batch routes whose requests land in the
// Panicked bucket so the request books stay balanced. Gate slots and
// timers are safe across the unwind: handlers defer their releases before
// any code that can panic. http.ErrAbortHandler is the net/http-sanctioned
// abort and is re-raised.
func (s *Server) recovering(countReq bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.stats.panicTotal.Add(1)
			if countReq {
				s.stats.reqPanicked.Add(1)
			}
			if !sw.wrote {
				writeError(sw, http.StatusInternalServerError,
					fmt.Errorf("serve: internal panic: %v", rec))
			}
		}()
		h(sw, r)
	}
}

// ---------------------------------------------------------------- handlers

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	s.stats.reqTranslate.Add(1)
	req, tr, ok := s.prepare(w, r)
	if !ok {
		return
	}
	fns, err := outofssa.ParseAll(req.Source)
	if err == nil && len(fns) != 1 {
		err = fmt.Errorf("serve: /v1/translate takes exactly one function, got %d (use /v1/batch)", len(fns))
	}
	if err != nil {
		s.stats.reqBadRequest.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	start := time.Now()
	ctx, cancel, admitted := s.admit(w, r, req)
	if !admitted {
		return
	}
	defer cancel()
	defer s.gate.release()
	s.hold()

	if err := fpTranslate.Inject(); err != nil {
		s.stats.hist.observe(time.Since(start))
		s.stats.reqFailed.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	res, terr := tr.Translate(ctx, fns[0])
	s.stats.hist.observe(time.Since(start))
	canceled := isCanceled(terr)
	s.stats.foldFunc(&res, canceled)
	switch {
	case canceled:
		s.stats.reqCanceled.Add(1)
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: translation canceled: %w", terr))
		return
	case terr != nil:
		s.stats.reqFailed.Add(1)
		writeError(w, http.StatusUnprocessableEntity, terr)
		return
	}
	if err := fpEncode.Inject(); err != nil {
		s.stats.reqFailed.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.stats.reqOK.Add(1)
	resp := &TranslateResponse{
		Name:          fns[0].Name,
		Output:        fns[0].String(),
		Stats:         res.Stats,
		CleanedBlocks: res.CleanedBlocks,
		CacheHits:     res.Cache.Hits,
		CacheMisses:   res.Cache.Misses,
		MemoHit:       res.Cache.MemoHits > 0,
		ElapsedMicros: float64(time.Since(start).Nanoseconds()) / 1e3,
	}
	if res.Alloc != nil {
		resp.RegsUsed = res.Alloc.RegsUsed
		resp.Spills = res.Alloc.Spills
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.stats.reqBatch.Add(1)
	req, tr, ok := s.prepare(w, r)
	if !ok {
		return
	}
	fns, err := outofssa.ParseAll(req.Source)
	if err == nil && len(fns) == 0 {
		err = fmt.Errorf("serve: batch with no functions")
	}
	if err != nil {
		s.stats.reqBadRequest.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return
	}

	start := time.Now()
	ctx, cancel, admitted := s.admit(w, r, req)
	if !admitted {
		return
	}
	defer cancel()
	defer s.gate.release()
	s.hold()

	// Last point where a batch fault can still be reported as a status
	// code: once the 200 header is out, errors can only end the stream.
	if err := fpTranslate.Inject(); err != nil {
		s.stats.hist.observe(time.Since(start))
		s.stats.reqFailed.Add(1)
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	sum := BatchSummary{Done: true, Funcs: len(fns)}
	var agg outofssa.Stats
	clientGone := false
	for i, res := range tr.Stream(ctx, fns) {
		canceled := isCanceled(res.Err)
		s.stats.foldFunc(&res, canceled)
		item := BatchItem{Index: i, Name: fns[i].Name}
		switch {
		case canceled:
			sum.Canceled++
			item.Canceled = true
			item.Error = res.Err.Error()
		case res.Err != nil:
			sum.Failed++
			item.Error = res.Err.Error()
			var perr *outofssa.PassError
			if errors.As(res.Err, &perr) {
				item.Pass = perr.Pass
			}
		default:
			sum.OK++
			item.Stats = res.Stats
			if !req.Quiet {
				item.Output = fns[i].String()
			}
			if res.Stats != nil {
				agg.Accumulate(res.Stats)
			}
		}
		if !clientGone {
			if err := enc.Encode(&item); err != nil {
				// The client went away; keep consuming the stream so the
				// batch accounting stays complete — ctx (the request
				// context) is already canceled, so remaining work stops at
				// pass boundaries and skipped functions are never yielded.
				clientGone = true
			} else {
				rc.Flush()
			}
		}
	}
	// Functions never claimed before cancellation are not yielded by
	// Stream; account them as canceled — in the summary and in the daemon's
	// cumulative counters, so every submitted function of an admitted batch
	// lands in exactly one functions bucket.
	if skipped := sum.Funcs - sum.OK - sum.Failed - sum.Canceled; skipped > 0 {
		sum.Canceled += skipped
		s.stats.funcsCanceled.Add(int64(skipped))
	}
	sum.Stats = &agg
	sum.ElapsedMicros = float64(time.Since(start).Nanoseconds()) / 1e3
	s.stats.hist.observe(time.Since(start))
	if ctx.Err() != nil || clientGone {
		s.stats.reqCanceled.Add(1)
	} else if sum.Failed > 0 {
		s.stats.reqFailed.Add(1)
	} else {
		s.stats.reqOK.Add(1)
	}
	if !clientGone {
		if enc.Encode(&sum) == nil {
			rc.Flush()
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if err := fpStats.Inject(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, s.statsResponse())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("draining"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// ------------------------------------------------------------- scaffolding

// prepare performs the per-request steps shared by translate and batch:
// drain refusal, body limit, request parsing, translator construction.
func (s *Server) prepare(w http.ResponseWriter, r *http.Request) (TranslateRequest, *outofssa.Translator, bool) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return TranslateRequest{}, nil, false
	}
	if err := fpDecode.Inject(); err != nil {
		s.stats.reqBadRequest.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return TranslateRequest{}, nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	req, err := parseRequest(r)
	if err != nil {
		s.stats.reqBadRequest.Add(1)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, err)
		return req, nil, false
	}
	if req.Strategy == "" {
		req.Strategy = "sharing"
	}
	// The worker bound is the server's capacity decision, not the
	// client's: per-request workers are deliberately not a request field.
	var extra []outofssa.Option
	if s.cfg.BatchWorkers > 0 {
		extra = append(extra, outofssa.WithWorkers(s.cfg.BatchWorkers))
	}
	if s.memo != nil {
		extra = append(extra, outofssa.WithMemo(s.memo))
	}
	tr, err := req.translator(extra...)
	if err != nil {
		s.stats.reqBadRequest.Add(1)
		writeError(w, http.StatusBadRequest, err)
		return req, nil, false
	}
	return req, tr, true
}

// admit runs admission control and deadline setup. On false the response
// has been written (429/timeout accounting included). On true the caller
// holds a gate slot and owes both cancel and gate.release.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, req TranslateRequest) (context.Context, context.CancelFunc, bool) {
	d := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		d = time.Duration(req.TimeoutMillis) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), d)
	if err := s.gate.acquire(ctx); err != nil {
		cancel()
		if errors.Is(err, errOverloaded) {
			s.stats.reqOverloaded.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, errors.New("serve: overloaded: in-flight slots and queue full"))
			return nil, nil, false
		}
		// The caller gave up (disconnect) or timed out while queued.
		s.stats.reqCanceled.Add(1)
		writeError(w, http.StatusGatewayTimeout, fmt.Errorf("serve: queued past deadline: %w", err))
		return nil, nil, false
	}
	return ctx, cancel, true
}

// hold is the test hook: block while the package tests pin the slots.
func (s *Server) hold() {
	if s.holdForTest != nil {
		<-s.holdForTest
	}
}

// retryAfterSeconds derives the 429 Retry-After hint from observed mean
// latency and current congestion: roughly how long until a queue slot
// frees up, at least 1s.
func (s *Server) retryAfterSeconds() int {
	snap := s.stats.hist.snapshot()
	mean := snap.mean() / 1e9 // seconds
	waiting := float64(s.gate.queued.Load()+s.gate.inFlight.Load()) / float64(s.cfg.MaxInFlight)
	sec := int(math.Ceil(mean * waiting))
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// isCanceled reports whether err is a cancellation outcome (client
// disconnect or deadline) rather than a pass rejection. The pipeline
// returns the context's error for functions stopped at a pass boundary and
// for functions never claimed.
func isCanceled(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// writeJSON writes v as compact JSON, one line, like the NDJSON batch
// stream.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
