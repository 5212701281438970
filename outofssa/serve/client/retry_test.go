package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/outofssa/serve"
)

const retrySrc = `
func f {
entry:
  a = param 0
  b = const 2
  c = add a b
  print c
  ret c
}
`

// flaky serves 429 (with the given Retry-After header) for the first n
// requests to a path, then delegates to the real server.
func flaky(t *testing.T, n int64, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	srv := serve.New(serve.Config{})
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= n {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"shed"}`))
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

func TestRetryAfterBothForms(t *testing.T) {
	for name, header := range map[string]string{
		"delta-seconds": "7",
		"http-date":     time.Now().Add(7 * time.Second).UTC().Format(http.TimeFormat),
	} {
		t.Run(name, func(t *testing.T) {
			ts, _ := flaky(t, 1, header)
			_, err := New(ts.URL, nil).Translate(context.Background(), serve.TranslateRequest{Source: retrySrc})
			ra, overloaded := IsOverloaded(err)
			if !overloaded {
				t.Fatalf("want 429 APIError, got %v", err)
			}
			if ra < 5*time.Second || ra > 8*time.Second {
				t.Fatalf("RetryAfter = %v, want ~7s", ra)
			}
		})
	}
}

func TestRetryEventuallySucceeds(t *testing.T) {
	ts, calls := flaky(t, 2, "")
	var retries []int
	c := New(ts.URL, nil).WithRetry(RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   time.Millisecond,
		OnRetry:     func(attempt int, err error, delay time.Duration) { retries = append(retries, attempt) },
	})
	out, err := c.Translate(context.Background(), serve.TranslateRequest{Source: retrySrc})
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "f" {
		t.Fatalf("translated %q, want f", out.Name)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
	if len(retries) != 2 || retries[0] != 1 || retries[1] != 2 {
		t.Fatalf("OnRetry attempts = %v, want [1 2]", retries)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	ts, calls := flaky(t, 100, "")
	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond})
	_, err := c.Translate(context.Background(), serve.TranslateRequest{Source: retrySrc})
	if _, overloaded := IsOverloaded(err); !overloaded {
		t.Fatalf("want the last 429 back, got %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	ts, _ := flaky(t, 1, "1")
	var sawDelay time.Duration
	c := New(ts.URL, nil).WithRetry(RetryPolicy{
		BaseDelay: time.Millisecond,
		MaxDelay:  30 * time.Second,
		OnRetry:   func(_ int, _ error, delay time.Duration) { sawDelay = delay },
	})
	start := time.Now()
	if _, err := c.Translate(context.Background(), serve.TranslateRequest{Source: retrySrc}); err != nil {
		t.Fatal(err)
	}
	if sawDelay != time.Second {
		t.Fatalf("delay = %v, want the server's 1s hint", sawDelay)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("returned after %v, did not actually wait the hint", elapsed)
	}
}

func TestRetryDoesNotRetryBadRequest(t *testing.T) {
	srv := serve.New(serve.Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	var retried bool
	c := New(ts.URL, nil).WithRetry(RetryPolicy{
		BaseDelay: time.Millisecond,
		OnRetry:   func(int, error, time.Duration) { retried = true },
	})
	_, err := c.Translate(context.Background(), serve.TranslateRequest{Source: "not ir"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("want 400 APIError, got %v", err)
	}
	if retried {
		t.Fatal("retried a deterministic 400")
	}
}

// TestRetryContextBounded: the context deadline stops the retry loop. The
// stub's Retry-After of one second exceeds MaxDelay, so every retry waits
// exactly MaxDelay (no jitter): the 60ms deadline leaves room for the first
// call and one retry at 50ms, never a third call at 100ms.
func TestRetryContextBounded(t *testing.T) {
	ts, calls := flaky(t, 100, "1")
	c := New(ts.URL, nil).WithRetry(RetryPolicy{MaxAttempts: 50, BaseDelay: 50 * time.Millisecond, MaxDelay: 50 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Translate(ctx, serve.TranslateRequest{Source: retrySrc})
	if err == nil {
		t.Fatal("want error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("retry loop ignored the context deadline")
	}
	if calls.Load() > 2 {
		t.Fatalf("server saw %d calls, want at most 2 before the deadline", calls.Load())
	}
}

func TestRetryTransportError(t *testing.T) {
	// A connection-refused transport error is retryable; pointing at a
	// closed port exhausts attempts rather than failing on the first.
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close()
	var attempts int
	c := New(url, nil).WithRetry(RetryPolicy{
		MaxAttempts: 3,
		BaseDelay:   time.Millisecond,
		OnRetry:     func(int, error, time.Duration) { attempts++ },
	})
	if _, err := c.Translate(context.Background(), serve.TranslateRequest{Source: retrySrc}); err == nil {
		t.Fatal("want transport error")
	}
	if attempts != 2 {
		t.Fatalf("saw %d retries, want 2", attempts)
	}
}

func TestBatchRetriesOnlyBeforeFirstItem(t *testing.T) {
	ts, calls := flaky(t, 1, "")
	c := New(ts.URL, nil).WithRetry(RetryPolicy{BaseDelay: time.Millisecond})
	var items int
	sum, err := c.Batch(context.Background(), serve.TranslateRequest{Source: retrySrc, Quiet: true},
		func(serve.BatchItem) error { items++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if sum.OK != 1 || items != 1 {
		t.Fatalf("sum.OK=%d items=%d, want 1/1", sum.OK, items)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2 (one shed, one served)", calls.Load())
	}

	// An error from the caller's own item callback must not trigger a
	// replayed batch.
	before := calls.Load()
	sentinel := errors.New("caller abort")
	_, err = c.Batch(context.Background(), serve.TranslateRequest{Source: retrySrc, Quiet: true},
		func(serve.BatchItem) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel back, got %v", err)
	}
	if calls.Load() != before+1 {
		t.Fatalf("server saw %d extra calls, want 1", calls.Load()-before)
	}
}

func TestHedgedTranslate(t *testing.T) {
	srv := serve.New(serve.Config{})
	var calls atomic.Int64
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// First request stalls until released; the hedge must win.
		if calls.Add(1) == 1 {
			<-release
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(func() { close(release); ts.Close() })

	var hedged bool
	c := New(ts.URL, nil).WithRetry(RetryPolicy{
		Hedge:   20 * time.Millisecond,
		OnRetry: func(_ int, err error, _ time.Duration) { hedged = err == nil },
	})
	start := time.Now()
	out, err := c.Translate(context.Background(), serve.TranslateRequest{Source: retrySrc})
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "f" {
		t.Fatalf("translated %q, want f", out.Name)
	}
	if !hedged {
		t.Fatal("hedge never launched")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hedged call waited for the stalled attempt")
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

func TestHedgedFailFast(t *testing.T) {
	// Both attempts fail with 429: the hedged call returns the first error
	// after the second attempt (launched immediately on first failure).
	ts, calls := flaky(t, 100, "")
	c := New(ts.URL, nil).WithRetry(RetryPolicy{Hedge: time.Hour})
	_, err := c.Translate(context.Background(), serve.TranslateRequest{Source: retrySrc})
	if _, overloaded := IsOverloaded(err); !overloaded {
		t.Fatalf("want 429 back, got %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d calls, want 2", calls.Load())
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&APIError{StatusCode: 429}, true},
		{&APIError{StatusCode: 503}, true},
		{&APIError{StatusCode: 400}, false},
		{&APIError{StatusCode: 422}, false},
		{&APIError{StatusCode: 500}, false},
		{errors.New("read tcp: connection reset by peer"), true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}
