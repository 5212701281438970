package main

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestLoadGeneratorCalibration drives a stub handler with a fixed service
// time below and above the capacity of the generator's two senders. Below
// capacity the generator must report the stub's own latency and send on
// time; above it, latency must grow with the backlog and the window must
// fail the max_rps criteria. So max_rps measures the server, not the
// generator.
func TestLoadGeneratorCalibration(t *testing.T) {
	const service = 5 * time.Millisecond
	const senders = 2 // capacity: senders / service = 400 requests/s
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer stub.Close()
	tr := &http.Transport{MaxConnsPerHost: senders, MaxIdleConnsPerHost: senders}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	send := func(ctx context.Context, k int) bool {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, stub.URL, nil)
		if err != nil {
			return false
		}
		resp, err := hc.Do(req)
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusNoContent
	}
	ctx := context.Background()

	below := runOpenLoop(ctx, senders, 100, 100, 0, send).stats()
	aboveWin := runOpenLoop(ctx, senders, 800, 400, 0, send)
	above := aboveWin.stats()

	if lo, hi := ms(service), ms(service)+3; below.p50 < lo || below.p50 > hi {
		t.Errorf("below capacity: p50 %.2f ms, want the service time %.0f ms (within %.0f..%.0f)", below.p50, ms(service), lo, hi)
	}
	if below.failed != 0 || below.unsent != 0 || below.backlogGrowing {
		t.Errorf("below capacity: %d failed, %d unsent, backlog growing %v", below.failed, below.unsent, below.backlogGrowing)
	}
	if below.lateP99 > 25 || below.lateP99 > above.lateP99/4 {
		t.Errorf("below capacity the generator ran late: p99 %.2f ms (above capacity: %.2f ms)", below.lateP99, above.lateP99)
	}

	if !above.backlogGrowing || above.meets() {
		t.Errorf("above capacity: backlog growing %v, meets criteria %v; want the run flagged", above.backlogGrowing, above.meets())
	}
	if above.p99 < 20*ms(service) {
		t.Errorf("above capacity: p99 %.2f ms did not grow with the backlog", above.p99)
	}
	// Latency grows along the window as the backlog builds.
	n := len(aboveWin.samples)
	first, last := aboveWin.samples[n/8], aboveWin.samples[n-1-n/8]
	if last.done-last.due <= 4*(first.done-first.due) {
		t.Errorf("above capacity: latency %v early vs %v late in the window; want growth", first.done-first.due, last.done-last.due)
	}
}

func TestGuards(t *testing.T) {
	if guardLoad(2, 2, 2) != nil || guardProcs(2, 2) != nil {
		t.Fatal("a generator as wide as the machine was refused")
	}
	if guardLoad(3, 2, 2) == nil || guardLoad(2, 3, 2) == nil || guardLoad(2, 0, 2) == nil {
		t.Fatal("a generator wider than the machine was accepted")
	}
	if guardProcs(1, 2) == nil {
		t.Fatal("GOMAXPROCS below nproc was accepted")
	}
}
