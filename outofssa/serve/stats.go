package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/outofssa"
)

// serverStats is the daemon's cumulative accounting. The request/function
// counters and the latency histogram are lock-free; the Figure 5-style
// aggregate (outofssa.Stats via Accumulate), the cache tallies, and the
// per-phase nanosecond sums fold under one short-held mutex, once per
// completed function.
type serverStats struct {
	reqTranslate  atomic.Int64
	reqBatch      atomic.Int64
	reqOK         atomic.Int64
	reqFailed     atomic.Int64
	reqCanceled   atomic.Int64
	reqOverloaded atomic.Int64
	reqBadRequest atomic.Int64
	reqPanicked   atomic.Int64

	// panicTotal counts every handler panic the isolation middleware
	// recovered, including on non-translation routes (reqPanicked covers
	// only translate/batch, so the request books still balance).
	panicTotal atomic.Int64

	funcsOK       atomic.Int64
	funcsFailed   atomic.Int64
	funcsCanceled atomic.Int64

	hist histogram

	mu    sync.Mutex
	agg   outofssa.Stats // deterministic counters of every successful function
	cache outofssa.CacheStats
	// Per-phase wall clock, summed across successful functions. These are
	// the fields Stats.Accumulate deliberately excludes (they are
	// scheduling-dependent), so the server sums them separately: the
	// aggregate counters stay deterministic, the timings stay observable.
	insertNs, analyzeNs, coalesceNs, rewriteNs int64
}

// foldFunc accounts one completed function: classify the outcome, fold
// the deterministic counters and timings of successes, and always fold
// the cache behaviour (a failing function still exercised the cache).
func (st *serverStats) foldFunc(res *outofssa.Result, canceled bool) {
	switch {
	case canceled:
		st.funcsCanceled.Add(1)
	case res.Err != nil:
		st.funcsFailed.Add(1)
	default:
		st.funcsOK.Add(1)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.cache.Add(res.Cache)
	if res.Err == nil && res.Stats != nil {
		st.agg.Accumulate(res.Stats)
		st.insertNs += res.Stats.InsertNanos
		st.analyzeNs += res.Stats.AnalyzeNanos
		st.coalesceNs += res.Stats.CoalesceNanos
		st.rewriteNs += res.Stats.RewriteNanos
	}
}

// StatsResponse is the JSON body of GET /v1/stats: the daemon's cumulative
// view of itself since start.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	// Request accounting. OK + Failed + Canceled counts admitted requests
	// that ran; Overloaded counts 429 rejections (never admitted, never in
	// the latency histogram); BadRequest counts 4xx parse/option failures;
	// Panicked counts translate/batch requests ended by a recovered handler
	// panic. Every translate/batch request lands in exactly one of these
	// six buckets.
	Requests struct {
		Translate  int64 `json:"translate"`
		Batch      int64 `json:"batch"`
		OK         int64 `json:"ok"`
		Failed     int64 `json:"failed"`
		Canceled   int64 `json:"canceled"`
		Overloaded int64 `json:"overloaded"`
		BadRequest int64 `json:"bad_request"`
		Panicked   int64 `json:"panicked"`
	} `json:"requests"`

	// PanicTotal counts every panic the handler-isolation middleware
	// recovered, on any route. The daemon survives each one.
	PanicTotal int64 `json:"panic_total"`

	// Function accounting across all batches and single translations.
	Functions struct {
		OK       int64 `json:"ok"`
		Failed   int64 `json:"failed"`
		Canceled int64 `json:"canceled"`
	} `json:"functions"`

	// Admission gauges at scrape time.
	InFlight int64 `json:"in_flight"`
	Queued   int64 `json:"queued"`
	Draining bool  `json:"draining"`

	// Translation is the cumulative Figure 5-style aggregate over every
	// successful function (copies remaining, intersection tests, …),
	// folded with outofssa.Stats.Accumulate.
	Translation outofssa.Stats `json:"translation"`

	// PhaseNanos sums the per-phase wall clock of every successful
	// function: the paper's four-phase cost split, cumulatively.
	PhaseNanos struct {
		Insert   int64 `json:"insert"`
		Analyze  int64 `json:"analyze"`
		Coalesce int64 `json:"coalesce"`
		Rewrite  int64 `json:"rewrite"`
	} `json:"phase_nanos"`

	// Cache is the aggregate analysis-cache behaviour.
	Cache struct {
		Hits    uint64  `json:"hits"`
		Misses  uint64  `json:"misses"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`

	// Memo is the server-wide translation memo's own counters. Omitted when
	// the server was configured with memoization disabled.
	Memo *MemoSection `json:"memo,omitempty"`

	// Latency is the server-side request latency distribution (admitted
	// requests, admission wait included — what a client experiences once
	// past the 429 gate).
	Latency struct {
		Count      int64   `json:"count"`
		MeanMicros float64 `json:"mean_us"`
		P50Micros  float64 `json:"p50_us"`
		P90Micros  float64 `json:"p90_us"`
		P99Micros  float64 `json:"p99_us"`
		MaxMicros  float64 `json:"max_us"`
	} `json:"latency"`
}

// MemoSection is the translation-memo block of StatsResponse. Every field
// comes from one Memo.Stats snapshot taken at scrape time — the memo counts
// its own lookups — and HitRate is MemoStats.HitRate.
type MemoSection struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Entries   int     `json:"entries"`
	Bytes     int64   `json:"bytes"`
	Evictions uint64  `json:"evictions"`
}

// statsResponse assembles the scrape.
func (s *Server) statsResponse() *StatsResponse {
	st := &s.stats
	out := &StatsResponse{UptimeSeconds: time.Since(s.start).Seconds()}
	out.Requests.Translate = st.reqTranslate.Load()
	out.Requests.Batch = st.reqBatch.Load()
	out.Requests.OK = st.reqOK.Load()
	out.Requests.Failed = st.reqFailed.Load()
	out.Requests.Canceled = st.reqCanceled.Load()
	out.Requests.Overloaded = st.reqOverloaded.Load()
	out.Requests.BadRequest = st.reqBadRequest.Load()
	out.Requests.Panicked = st.reqPanicked.Load()
	out.PanicTotal = st.panicTotal.Load()
	out.Functions.OK = st.funcsOK.Load()
	out.Functions.Failed = st.funcsFailed.Load()
	out.Functions.Canceled = st.funcsCanceled.Load()
	out.InFlight = s.gate.inFlight.Load()
	out.Queued = s.gate.queued.Load()
	out.Draining = s.draining.Load()

	st.mu.Lock()
	out.Translation = st.agg
	out.Cache.Hits = st.cache.Hits
	out.Cache.Misses = st.cache.Misses
	out.Cache.HitRate = st.cache.HitRate()
	out.PhaseNanos.Insert = st.insertNs
	out.PhaseNanos.Analyze = st.analyzeNs
	out.PhaseNanos.Coalesce = st.coalesceNs
	out.PhaseNanos.Rewrite = st.rewriteNs
	st.mu.Unlock()

	if s.memo != nil {
		ms := s.memo.Stats()
		out.Memo = &MemoSection{
			Hits:      ms.Hits,
			Misses:    ms.Misses,
			HitRate:   ms.HitRate(),
			Entries:   ms.Entries,
			Bytes:     ms.Bytes,
			Evictions: ms.Evictions,
		}
	}

	snap := st.hist.snapshot()
	out.Latency.Count = snap.count
	out.Latency.MeanMicros = snap.mean() / 1e3
	out.Latency.P50Micros = snap.quantile(0.50) / 1e3
	out.Latency.P90Micros = snap.quantile(0.90) / 1e3
	out.Latency.P99Micros = snap.quantile(0.99) / 1e3
	out.Latency.MaxMicros = float64(snap.maxNs) / 1e3
	return out
}
