package serve_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/outofssa"
	"repro/outofssa/serve"
	"repro/outofssa/serve/client"
)

// TestServerMemoHit: repeating a request against the server's built-in
// memo marks the repeat as served from the store, with identical output,
// and the /v1/stats memo section reflects the traffic.
func TestServerMemoHit(t *testing.T) {
	_, cl := startServer(t, serve.Config{})
	src := corpus(t, 1, 0)
	ctx := context.Background()

	first, err := cl.Translate(ctx, serve.TranslateRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if first.MemoHit {
		t.Fatal("first request hit an empty memo")
	}
	second, err := cl.Translate(ctx, serve.TranslateRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if !second.MemoHit {
		t.Fatal("repeated request missed the server memo")
	}
	// Memoized output must parse and carry no φs, like any translation.
	if second.Output == "" {
		t.Fatal("memo hit returned empty output")
	}
	if _, err := outofssa.ParseAll(second.Output); err != nil {
		t.Fatalf("memoized output does not re-parse: %v", err)
	}

	// Different machinery must not share entries: the same source under
	// another strategy is a miss.
	other, err := cl.Translate(ctx, serve.TranslateRequest{Source: src, Strategy: "sreedhar3"})
	if err != nil {
		t.Fatal(err)
	}
	if other.MemoHit {
		t.Fatal("memo served a translation recorded under different options")
	}

	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Memo == nil {
		t.Fatal("stats response has no memo section although the memo is on")
	}
	if st.Memo.Hits != 1 || st.Memo.Misses != 2 {
		t.Fatalf("memo stats hits=%d misses=%d, want 1 and 2", st.Memo.Hits, st.Memo.Misses)
	}
	if st.Memo.Entries != 2 || st.Memo.Bytes <= 0 {
		t.Fatalf("memo retention: %+v", st.Memo)
	}
	if want := 1.0 / 3.0; st.Memo.HitRate != want {
		t.Fatalf("memo hit rate %v, want %v", st.Memo.HitRate, want)
	}
}

// TestServerMemoStatsAreTheMemos: the memo is the one counter of its
// lookups. With every third lookup that finds an entry turned into a miss
// by the memo.materialize failpoint, the memo's hits equal the translate
// answers flagged memo_hit, and after a batch of duplicates the /v1/stats
// memo section equals the memo's own counters.
func TestServerMemoStatsAreTheMemos(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()
	src := corpus(t, 1, 0)
	if err := outofssa.EnableFaults("memo.materialize=err:every=3", 1); err != nil {
		t.Fatal(err)
	}
	defer faults.Disable()

	const repeats = 7
	flagged := 0
	for range repeats {
		resp, err := cl.Translate(ctx, serve.TranslateRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if resp.MemoHit {
			flagged++
		}
	}
	ms := srv.Memo().Stats()
	if ms.Hits != uint64(flagged) || ms.Hits+ms.Misses != repeats {
		t.Fatalf("memo counted %d hits and %d misses for %d requests, %d answers flagged memo_hit",
			ms.Hits, ms.Misses, repeats, flagged)
	}
	if ms.Misses < 2 {
		t.Fatalf("the failpoint turned no lookup into a miss: %+v", ms)
	}

	if _, err := cl.Batch(ctx, serve.TranslateRequest{Source: strings.Repeat(src, 5), Quiet: true},
		func(serve.BatchItem) error { return nil }); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ms = srv.Memo().Stats()
	if st.Memo == nil || st.Memo.Hits != ms.Hits || st.Memo.Misses != ms.Misses || st.Memo.HitRate != ms.HitRate() {
		t.Fatalf("/v1/stats memo section %+v, memo counters %+v", st.Memo, ms)
	}
	if ms.Hits+ms.Misses != repeats+5 {
		t.Fatalf("memo counted %d lookups, want %d", ms.Hits+ms.Misses, repeats+5)
	}
}

// TestServerMemoDisabled: MemoEntries < 0 turns the memo off — repeats
// translate from scratch and /v1/stats carries no memo section.
func TestServerMemoDisabled(t *testing.T) {
	_, cl := startServer(t, serve.Config{MemoEntries: -1})
	src := corpus(t, 1, 0)
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		resp, err := cl.Translate(ctx, serve.TranslateRequest{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if resp.MemoHit {
			t.Fatalf("request %d hit although the memo is disabled", i)
		}
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Memo != nil {
		t.Fatalf("disabled memo still reports a stats section: %+v", st.Memo)
	}
}
