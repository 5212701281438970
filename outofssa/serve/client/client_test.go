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

const translateSrc = `
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

// TestRetryAfterBothForms: a shed request surfaces as an overload error
// carrying the server's Retry-After hint in either RFC 9110 form, after
// exactly one request — the client never retries on its own.
func TestRetryAfterBothForms(t *testing.T) {
	for name, header := range map[string]string{
		"delta-seconds": "7",
		"http-date":     time.Now().Add(7 * time.Second).UTC().Format(http.TimeFormat),
	} {
		t.Run(name, func(t *testing.T) {
			ts, calls := flaky(t, 1, header)
			_, err := New(ts.URL, nil).Translate(context.Background(), serve.TranslateRequest{Source: translateSrc})
			var ae *APIError
			if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("want 429 APIError, got %v", err)
			}
			if ra := ae.RetryAfter; ra < 5*time.Second || ra > 8*time.Second {
				t.Fatalf("RetryAfter = %v, want ~7s", ra)
			}
			if n := calls.Load(); n != 1 {
				t.Fatalf("stub saw %d requests, want exactly 1", n)
			}
		})
	}
}

// TestBatchItemErrorAborts: an error from the caller's item callback ends
// the stream and comes back unchanged, after one request.
func TestBatchItemErrorAborts(t *testing.T) {
	ts, calls := flaky(t, 0, "")
	sentinel := errors.New("caller abort")
	_, err := New(ts.URL, nil).Batch(context.Background(), serve.TranslateRequest{Source: translateSrc, Quiet: true},
		func(serve.BatchItem) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("want the callback's error back, got %v", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("stub saw %d requests, want exactly 1", n)
	}
}
