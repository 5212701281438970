// Black-box tests of the text mode of /v1/translate, the wire the typed
// client speaks: the IR as the whole body both ways, every other field in
// the ResultHeader. JSON stays the answer for every other request.
package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/faults"
	"repro/outofssa"
	"repro/outofssa/serve"
	"repro/outofssa/serve/client"
)

// postJSON sends req as a JSON body without an Accept header and decodes
// the JSON answer.
func postJSON(t *testing.T, url string, req serve.TranslateRequest) *serve.TranslateResponse {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/translate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("JSON request: status %d, content type %q: %s", resp.StatusCode, ct, b)
	}
	if h := resp.Header.Get(serve.ResultHeader); h != "" {
		t.Fatalf("a JSON answer carries the %s header %q", serve.ResultHeader, h)
	}
	var out serve.TranslateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// clearClocks zeroes the wall clocks of each response: ElapsedMicros and
// the phase nanos of a miss.
func clearClocks(rs ...*serve.TranslateResponse) {
	for _, r := range rs {
		r.ElapsedMicros = 0
		r.Stats.InsertNanos, r.Stats.AnalyzeNanos, r.Stats.CoalesceNanos, r.Stats.RewriteNanos = 0, 0, 0, 0
	}
}

// TestTextMatchesJSON: for every strategy, with the register allocator on,
// as a memo miss and then as a memo hit, the typed client's text-mode
// answer equals the JSON answer of an identically configured server field
// by field, the wall clocks aside: ElapsedMicros and the phase nanos of a
// miss.
func TestTextMatchesJSON(t *testing.T) {
	p := outofssa.DefaultProfile("textjson", 17)
	p.Funcs = 3
	funcs := outofssa.Generate(p)
	jsonSrv := httptest.NewServer(serve.New(serve.Config{}))
	t.Cleanup(jsonSrv.Close)
	_, cl := startServer(t, serve.Config{})
	ctx := context.Background()
	for _, f := range funcs {
		for _, name := range outofssa.StrategyNames() {
			req := serve.TranslateRequest{Source: f.String(), Strategy: name, Registers: 4}
			for _, round := range []string{"miss", "hit"} {
				want := postJSON(t, jsonSrv.URL, req)
				got, err := cl.Translate(ctx, req)
				if err != nil {
					t.Fatalf("%s %s %s: %v", f.Name, name, round, err)
				}
				if got.MemoHit != (round == "hit") {
					t.Fatalf("%s %s %s: memo_hit %v", f.Name, name, round, got.MemoHit)
				}
				clearClocks(got, want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s %s: text answer\n%+v\n%+v\nJSON answer\n%+v\n%+v",
						f.Name, name, round, *got, got.Stats, *want, want.Stats)
				}
			}
		}
	}
}

// TestTextAwkwardNames: a name holding a control byte, DEL, a non-ASCII
// character or a byte that is not UTF-8 comes back through the
// ResultHeader byte for byte, where the JSON answer replaces the last
// with U+FFFD; a name too long for the header comes back in a JSON answer
// that the client reads all the same.
func TestTextAwkwardNames(t *testing.T) {
	ts, cl := startServer(t, serve.Config{})
	jsonSrv := httptest.NewServer(serve.New(serve.Config{}))
	t.Cleanup(jsonSrv.Close)
	for _, c := range []struct{ name, contentType string }{
		{"f\x01é", "text/plain"},
		{"f\xff\x7f", "text/plain"},
		{"f" + strings.Repeat("x", 5000), "application/json"},
	} {
		req := serve.TranslateRequest{Source: "func " + c.name + " {\nentry:\n  a = param 0\n  ret a\n}\n"}
		got, err := cl.Translate(context.Background(), req)
		if err != nil {
			t.Fatalf("name %.20q: %v", c.name, err)
		}
		if got.Name != c.name || !strings.HasPrefix(got.Output, "func "+c.name+" {") {
			t.Fatalf("name %.20q came back %.20q, output %.40q", c.name, got.Name, got.Output)
		}
		want := postJSON(t, jsonSrv.URL, req)
		clearClocks(got, want)
		if !utf8.ValidString(c.name) {
			got.Name, got.Output = want.Name, want.Output
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("name %.20q: text answer %+v, JSON answer %+v", c.name, got, want)
		}

		hreq, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/translate", strings.NewReader(req.Source))
		hreq.Header.Set("Accept", "text/plain")
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != c.contentType {
			t.Fatalf("name %.20q: content type %q, want %q", c.name, ct, c.contentType)
		}
	}
}

// TestTextErrors: errors stay JSON with their status codes, so in text
// mode a bad source and a shed request still come back as *APIError with
// the server's message and Retry-After hint.
func TestTextErrors(t *testing.T) {
	srv := serve.New(serve.Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	_, err := cl.Translate(ctx, serve.TranslateRequest{Source: "func f {\nentry:\n  x = frobnicate y\n  ret x\n}"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest || !strings.Contains(ae.Message, "frobnicate") {
		t.Fatalf("bad source: want a 400 naming the bad opcode, got %v", err)
	}

	release := serve.HoldForTest(srv)
	t.Cleanup(release)
	src := corpus(t, 1, 0)
	pinned := make(chan error, 1)
	go func() {
		_, err := cl.Translate(ctx, serve.TranslateRequest{Source: src})
		pinned <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := cl.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the pinned request never took the slot")
		}
		time.Sleep(time.Millisecond)
	}
	_, err = cl.Translate(ctx, serve.TranslateRequest{Source: src})
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests ||
		!strings.Contains(ae.Message, "overloaded") || ae.RetryAfter < time.Second {
		t.Fatalf("full server: want a 429 with its message and Retry-After, got %v (%+v)", err, ae)
	}
	release()
	if err := <-pinned; err != nil {
		t.Fatalf("pinned request: %v", err)
	}
}

// TestTextFailpoints: the decode and encode failpoints fire on the text
// path with their usual statuses, and the request books still balance.
func TestTextFailpoints(t *testing.T) {
	_, cl := startServer(t, serve.Config{})
	src := corpus(t, 1, 0)
	ctx := context.Background()
	for _, c := range []struct {
		point  string
		status int
	}{
		{"serve.decode", http.StatusBadRequest},
		{"serve.encode", http.StatusInternalServerError},
	} {
		if err := outofssa.EnableFaults(c.point+"=err:once", 1); err != nil {
			t.Fatal(err)
		}
		_, err := cl.Translate(ctx, serve.TranslateRequest{Source: src})
		fires := faults.Snapshot()[c.point].Fires
		faults.Disable()
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.StatusCode != c.status || !strings.Contains(ae.Message, c.point) {
			t.Errorf("%s: want a %d naming the failpoint, got %v", c.point, c.status, err)
		}
		if fires != 1 {
			t.Errorf("%s fired %d times, want 1", c.point, fires)
		}
	}
	if _, err := cl.Translate(ctx, serve.TranslateRequest{Source: src}); err != nil {
		t.Fatalf("after the faults: %v", err)
	}
	st, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	assertBooksBalance(t, st)
	if st.Requests.BadRequest != 1 || st.Requests.Failed != 1 || st.Requests.OK != 1 {
		t.Fatalf("request buckets %+v, want one bad request, one failure, one success", st.Requests)
	}
}
