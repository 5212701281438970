// Package client is the typed Go client of the ssad translation daemon
// (outofssa/serve): single translations, NDJSON-streamed batches with a
// per-item callback, and stats scraping. perfbench's serve-mixed workload
// and the serve tests are its consumers.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/outofssa/serve"
)

// Client talks to one daemon. The zero value is not usable; use New. Every
// call makes exactly one HTTP request and never retries: a shed request
// (HTTP 429) comes back as an *APIError whose RetryAfter carries the
// server's hint, and backing off is the caller's choice.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:8377"). hc may be nil for http.DefaultClient; streaming
// batches need a client without a global Timeout (use per-request contexts
// instead).
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: hc}
}

// APIError is a non-2xx daemon response. For 429 (overload) RetryAfter
// carries the server's backoff hint.
type APIError struct {
	StatusCode int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve client: %d: %s", e.StatusCode, e.Message)
}

// Translate submits one function.
func (c *Client) Translate(ctx context.Context, req serve.TranslateRequest) (*serve.TranslateResponse, error) {
	resp, err := c.post(ctx, "/v1/translate", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := errorFrom(resp); err != nil {
		return nil, err
	}
	var out serve.TranslateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve client: decoding response: %w", err)
	}
	return &out, nil
}

// Batch submits a multi-function source and streams the results: item is
// called once per completed function, in the server's completion order. A
// non-nil item error aborts the stream (closing the connection cancels the
// server-side remainder). The returned summary is the server's trailer
// line; a stream that ended without one returns an error — the batch was
// cut short.
func (c *Client) Batch(ctx context.Context, req serve.TranslateRequest, item func(serve.BatchItem) error) (*serve.BatchSummary, error) {
	resp, err := c.post(ctx, "/v1/batch", req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := errorFrom(resp); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			return nil, fmt.Errorf("serve client: batch stream ended without a summary (server canceled or died)")
		} else if err != nil {
			return nil, fmt.Errorf("serve client: decoding batch stream: %w", err)
		}
		var probe struct {
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return nil, fmt.Errorf("serve client: decoding batch line: %w", err)
		}
		if probe.Done {
			var sum serve.BatchSummary
			if err := json.Unmarshal(raw, &sum); err != nil {
				return nil, fmt.Errorf("serve client: decoding batch summary: %w", err)
			}
			return &sum, nil
		}
		var it serve.BatchItem
		if err := json.Unmarshal(raw, &it); err != nil {
			return nil, fmt.Errorf("serve client: decoding batch item: %w", err)
		}
		if item != nil {
			if err := item(it); err != nil {
				return nil, err
			}
		}
	}
}

// Stats scrapes GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*serve.StatsResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := errorFrom(resp); err != nil {
		return nil, err
	}
	var out serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("serve client: decoding stats: %w", err)
	}
	return &out, nil
}

func (c *Client) post(ctx context.Context, path string, req serve.TranslateRequest) (*http.Response, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	return c.hc.Do(hreq)
}

// errorFrom turns a non-2xx response into an *APIError (draining the
// body); 2xx returns nil with the body unread.
func errorFrom(resp *http.Response) error {
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	defer resp.Body.Close()
	msg := resp.Status
	var er struct {
		Error string `json:"error"`
	}
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil {
		if json.Unmarshal(b, &er) == nil && er.Error != "" {
			msg = er.Error
		}
	}
	ae := &APIError{StatusCode: resp.StatusCode, Message: msg}
	// RFC 9110 §10.2.3 allows both delta-seconds and an HTTP-date; proxies
	// in front of the daemon commonly rewrite to the date form.
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil {
			if sec > 0 {
				ae.RetryAfter = time.Duration(sec) * time.Second
			}
		} else if when, err := http.ParseTime(ra); err == nil {
			if d := time.Until(when); d > 0 {
				ae.RetryAfter = d
			}
		}
	}
	return ae
}
