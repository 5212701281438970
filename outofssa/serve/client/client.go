// Package client is the typed Go client of the ssad translation daemon
// (outofssa/serve): single translations, NDJSON-streamed batches with a
// per-item callback, and stats scraping. It sends the IR as a text/plain
// body with the other request fields as query parameters, and takes a
// translation back in the daemon's text mode: the translated IR as the
// whole body, every other field in the serve.ResultHeader. Neither end
// frames the IR in JSON. perfbench's serve-mixed workload and the serve
// tests are its consumers.
package client

import (
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

// Translate submits one function and asks for the text-mode answer: the
// translated IR comes back as the whole body and every other field in the
// serve.ResultHeader, so the IR is never framed in JSON. An answer the
// header cannot carry comes back as JSON and is read as such.
func (c *Client) Translate(ctx context.Context, req serve.TranslateRequest) (*serve.TranslateResponse, error) {
	resp, err := c.post(ctx, "/v1/translate", req, "text/plain")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := errorFrom(resp); err != nil {
		return nil, err
	}
	if mt, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";"); strings.TrimSpace(mt) == "application/json" {
		var out serve.TranslateResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, fmt.Errorf("serve client: decoding response: %w", err)
		}
		return &out, nil
	}
	result := resp.Header.Get(serve.ResultHeader)
	if result == "" {
		return nil, fmt.Errorf("serve client: response carries no %s header", serve.ResultHeader)
	}
	body, err := readBody(resp)
	if err != nil {
		return nil, fmt.Errorf("serve client: reading response: %w", err)
	}
	return serve.ParseResult(result, string(body))
}

// Batch submits a multi-function source and streams the results: item is
// called once per completed function, in the server's completion order. A
// non-nil item error aborts the stream (closing the connection cancels the
// server-side remainder). The returned summary is the server's trailer
// line; a stream that ended without one returns an error — the batch was
// cut short.
func (c *Client) Batch(ctx context.Context, req serve.TranslateRequest, item func(serve.BatchItem) error) (*serve.BatchSummary, error) {
	resp, err := c.post(ctx, "/v1/batch", req, "")
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

// post sends req the way curl would: the IR as a text/plain body, every
// other non-zero field as a query parameter. accept, when set, is the
// Accept header.
func (c *Client) post(ctx context.Context, path string, req serve.TranslateRequest, accept string) (*http.Response, error) {
	u := c.base + path
	if q := req.Query(); q != "" {
		u += "?" + q
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, u, strings.NewReader(req.Source))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "text/plain")
	if accept != "" {
		hreq.Header.Set("Accept", accept)
	}
	return c.hc.Do(hreq)
}

// readBody reads resp's body whole: a body of known length, up to 64 KiB,
// into one exactly sized buffer, anything else as its bytes arrive.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > 64<<10 {
		return io.ReadAll(resp.Body)
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(resp.Body, buf)
	return buf, err
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
