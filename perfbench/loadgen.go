package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The open-loop load generator. Request k of a window is due at
// start + k/rate whether or not earlier requests have completed; a fixed
// set of sender goroutines (one connection each) takes requests in due
// order. When every sender is busy, due requests wait in the generator:
// that backlog is part of each request's latency, which is timed from the
// scheduled send time, never from the actual one.

// reqSample is one request's timeline, relative to the window start.
type reqSample struct {
	due, sent, done time.Duration
	sentOK, ok      bool
}

// window is the record of one open-loop run at one offered rate.
type window struct {
	rate    float64
	workers int
	samples []reqSample
	// aborted is set when the generator fell so far behind that the rest
	// of the window was not sent.
	aborted bool
}

// runOpenLoop offers n requests at rate per second from workers senders.
// send performs request k and reports whether it succeeded. When abortLate
// is positive and a request is about to go out more than abortLate after
// its due time, the window stops sending.
func runOpenLoop(ctx context.Context, workers int, rate float64, n int, abortLate time.Duration, send func(ctx context.Context, k int) bool) *window {
	w := &window{rate: rate, workers: workers, samples: make([]reqSample, n)}
	start := time.Now()
	var next atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := time.Duration(float64(k) / rate * 1e9)
				if d := due - time.Since(start); d > 0 {
					pause(d)
				}
				sent := time.Since(start)
				if abortLate > 0 && sent-due > abortLate {
					stop.Store(true)
					return
				}
				ok := send(ctx, k)
				w.samples[k] = reqSample{due: due, sent: sent, done: time.Since(start), sentOK: true, ok: ok}
			}
		}()
	}
	wg.Wait()
	w.aborted = stop.Load() || ctx.Err() != nil
	return w
}

// windowStats summarizes a window. Requests an aborted window never sent
// are not attempted operations, but they miss every latency limit.
type windowStats struct {
	attempted, failed int // sent requests, and those of them that failed
	unsent            int
	p50, p99          float64 // ms from due time to completion; a failure is +Inf
	lateP99           float64 // ms from due time to actual send
	backlogMax        int
	backlogGrowing    bool
}

// growthSlack is the backlog growth, in time's worth of arrivals, that a
// window may show before it counts as not keeping up.
const growthSlack = 10 * time.Millisecond

// latencyLimitMs is the p99 limit max_rps must meet, about forty times the
// unloaded service time of one /v1/translate request. It sits well above
// the 10-20 ms pauses a shared virtual machine imposes about once a second
// (a busy loop on an idle 2-vCPU guest sees them), so a probe fails when the
// server's queue builds, not when the hypervisor deschedules the guest.
const latencyLimitMs = 50

func (w *window) stats() windowStats {
	var st windowStats
	lat := make([]float64, 0, len(w.samples))
	late := make([]float64, 0, len(w.samples))
	sent := make([]time.Duration, 0, len(w.samples))
	for _, s := range w.samples {
		switch {
		case !s.sentOK:
			st.unsent++
		case !s.ok:
			st.failed++
		}
		if s.sentOK && s.ok {
			lat = append(lat, ms(s.done-s.due))
		} else {
			lat = append(lat, math.Inf(1))
		}
		if s.sentOK {
			late = append(late, ms(s.sent-s.due))
			sent = append(sent, s.sent)
		}
	}
	st.attempted = len(sent)
	st.p50 = quantile(lat, 0.50)
	st.p99 = quantile(lat, 0.99)
	st.lateP99 = quantile(late, 0.99)

	// Backlog (due but not yet sent) on a 5 ms grid over the schedule.
	sort.Slice(sent, func(i, j int) bool { return sent[i] < sent[j] })
	const step = 5 * time.Millisecond
	span := time.Duration(float64(len(w.samples)) / w.rate * 1e9)
	var series []int
	for t := time.Duration(0); t <= span; t += step {
		due := int(t.Seconds()*w.rate) + 1
		if due > len(w.samples) {
			due = len(w.samples)
		}
		done := sort.Search(len(sent), func(i int) bool { return sent[i] > t })
		b := due - done
		if b < 0 {
			b = 0
		}
		series = append(series, b)
		if b > st.backlogMax {
			st.backlogMax = b
		}
	}
	// Growing: the median backlog of the last quarter of the window exceeds
	// that of the first by more than growthSlack worth of arrivals (and two
	// requests per sender). Medians and the slack, so that one pause of the
	// machine, whose backlog drains again, does not count as growth.
	if q := len(series) / 4; q > 0 {
		first := make([]float64, q)
		last := make([]float64, q)
		for i := 0; i < q; i++ {
			first[i] = float64(series[i])
			last[i] = float64(series[len(series)-1-i])
		}
		slack := math.Max(float64(2*w.workers), w.rate*growthSlack.Seconds())
		st.backlogGrowing = median(last)-median(first) > slack
	}
	if w.aborted {
		st.backlogGrowing = true
	}
	return st
}

// meets reports whether the window meets the max_rps criteria: p99 within
// the limit, every request sent and none failed, no growing backlog.
func (s windowStats) meets() bool {
	return s.p99 <= latencyLimitMs && s.failed == 0 && s.unsent == 0 && !s.backlogGrowing
}
