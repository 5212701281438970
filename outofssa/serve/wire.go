package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/outofssa"
)

// TranslateRequest is the wire form of one translation request — the JSON
// body of POST /v1/translate and POST /v1/batch. Both endpoints also
// accept the raw textual IR as the body (any non-JSON content type), with
// the remaining fields supplied as query parameters
// (?strategy=sharing&registers=4&timeout_ms=1000 …); curl and the typed
// client send that form, and Query renders it.
//
// The machinery toggles are pointers so that an absent field keeps the
// strategy's default (WithStrategy implies virtualization for sreedhar3,
// for example); a present field is applied after the strategy, last one
// wins, and the server validates the final combination exactly like
// outofssa.New does.
type TranslateRequest struct {
	// Source is the textual IR: exactly one function for /v1/translate,
	// any number of concatenated functions for /v1/batch.
	Source string `json:"source"`
	// Strategy names the coalescing strategy (one of
	// outofssa.StrategyNames, case-insensitive); empty selects the
	// server's default (sharing).
	Strategy string `json:"strategy,omitempty"`

	// Machinery toggles, mirroring the outofssa functional options.
	Virtualize   *bool `json:"virtualize,omitempty"`    // WithVirtualization
	Graph        *bool `json:"graph,omitempty"`         // WithInterferenceGraph
	LiveCheck    *bool `json:"livecheck,omitempty"`     // WithFastLiveness
	Linear       *bool `json:"linear,omitempty"`        // WithLinearClassTest
	OrderedSets  *bool `json:"ordered_sets,omitempty"`  // WithOrderedSets
	SplitEdges   *bool `json:"split_edges,omitempty"`   // WithCriticalEdgeSplitting
	KeepParallel *bool `json:"keep_parallel,omitempty"` // WithParallelCopies
	Verify       *bool `json:"verify,omitempty"`        // WithVerify (default on)

	// Registers, when positive, enables the register-allocation stage with
	// a pool of r0..r(n-1) (WithRegisters, which refuses n outside
	// [0, 1024]).
	Registers int `json:"registers,omitempty"`
	// TimeoutMillis is the per-request deadline; 0 selects the server's
	// default, and the server clamps any request to its configured
	// maximum.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Quiet, on /v1/batch, omits the translated IR text from the streamed
	// items (the functions are still translated server-side) — for load
	// generation, where the caller only wants timings and counters.
	Quiet bool `json:"quiet,omitempty"`
}

// translator builds the per-request Translator, with extra server-side
// options (worker bound) applied last. It reuses the public option
// constructors — outofssa.ParseStrategy for the name table and
// outofssa.New for Options.Validate — so a request can express exactly the
// configurations the CLI tools can, and an invalid combination fails with
// the same message.
func (req *TranslateRequest) translator(extra ...outofssa.Option) (*outofssa.Translator, error) {
	opts := []outofssa.Option{}
	if req.Strategy != "" {
		s, err := outofssa.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		opts = append(opts, outofssa.WithStrategy(s))
	}
	if req.Virtualize != nil {
		opts = append(opts, outofssa.WithVirtualization(*req.Virtualize))
	}
	if req.Graph != nil {
		opts = append(opts, outofssa.WithInterferenceGraph(*req.Graph))
	}
	if req.LiveCheck != nil {
		opts = append(opts, outofssa.WithFastLiveness(*req.LiveCheck))
	}
	if req.Linear != nil {
		opts = append(opts, outofssa.WithLinearClassTest(*req.Linear))
	}
	if req.OrderedSets != nil {
		opts = append(opts, outofssa.WithOrderedSets(*req.OrderedSets))
	}
	if req.SplitEdges != nil {
		opts = append(opts, outofssa.WithCriticalEdgeSplitting(*req.SplitEdges))
	}
	if req.KeepParallel != nil {
		opts = append(opts, outofssa.WithParallelCopies(*req.KeepParallel))
	}
	if req.Verify != nil {
		opts = append(opts, outofssa.WithVerify(*req.Verify))
	}
	if req.Registers != 0 {
		opts = append(opts, outofssa.WithRegisters(req.Registers))
	}
	opts = append(opts, extra...)
	return outofssa.New(opts...)
}

// parseRequest reads one TranslateRequest from an HTTP request. A JSON
// content type selects the JSON body form; anything else treats the whole
// body as the textual IR source. Query parameters are applied first in
// both forms, so a JSON body can still be combined with ?strategy=…, with
// the body winning where both name a field.
func parseRequest(r *http.Request) (TranslateRequest, error) {
	var req TranslateRequest
	if err := applyQuery(&req, r.URL.Query()); err != nil {
		return req, err
	}
	body, err := readBody(r.Body, r.ContentLength)
	if err != nil {
		return req, fmt.Errorf("serve: reading request body: %w", err)
	}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil && (mt == "application/json" || strings.HasSuffix(mt, "+json")) {
		if err := json.Unmarshal(body, &req); err != nil {
			return req, fmt.Errorf("serve: decoding JSON request: %w", err)
		}
	} else {
		req.Source = string(body)
	}
	if strings.TrimSpace(req.Source) == "" {
		return req, fmt.Errorf("serve: empty source")
	}
	return req, nil
}

// maxSizedBody bounds the declared length readBody allocates for before
// any of the body has arrived, so a peer that declares a large body and
// stalls holds no more than this. A serve-mixed request is about 1.7 KB.
const maxSizedBody = 64 << 10

// readBody reads body whole. A body declared n bytes long, n at most
// maxSizedBody, goes into one exactly sized buffer; a longer one, or one
// of unknown length (n < 0), grows as its bytes arrive.
func readBody(body io.Reader, n int64) ([]byte, error) {
	if n < 0 || n > maxSizedBody {
		return io.ReadAll(body)
	}
	buf := make([]byte, n)
	_, err := io.ReadFull(body, buf)
	return buf, err
}

// bodyReadTimeout bounds each wait for more of a request body. The
// deadline moves this far ahead before every read, so a slow upload is
// never cut off, but a peer that stalls mid-body loses its connection,
// its goroutine and its body buffer: the body is read before admission,
// so MaxInFlight and the queue do not bound such peers.
const bodyReadTimeout = 10 * time.Second

// deadlineBody is a request body that moves the connection's read
// deadline bodyReadTimeout ahead before every read, replacing for the
// body any ReadTimeout of the http.Server the handler runs in. failed
// records a read that failed, the deadline's expiry included.
type deadlineBody struct {
	io.ReadCloser
	w      http.ResponseWriter
	failed bool
}

func (b *deadlineBody) Read(p []byte) (int, error) {
	// A ResponseWriter that cannot set deadlines, such as a handler
	// test's recorder, reads without one.
	err := http.NewResponseController(b.w).SetReadDeadline(time.Now().Add(bodyReadTimeout))
	if err != nil && !errors.Is(err, http.ErrNotSupported) {
		b.failed = true
		return 0, err
	}
	n, err := b.ReadCloser.Read(p)
	if err != nil && err != io.EOF {
		b.failed = true
	}
	return n, err
}

// requestQuery is the query form of a TranslateRequest, the fields that
// travel beside a raw IR body, in one fixed order: applyQuery reads them
// in it, so of several malformed parameters the error always names the
// same one, and Query writes them in it. field points into the request.
var requestQuery = [...]struct {
	key   string
	field func(*TranslateRequest) any
}{
	{"strategy", func(r *TranslateRequest) any { return &r.Strategy }},
	{"virtualize", func(r *TranslateRequest) any { return &r.Virtualize }},
	{"graph", func(r *TranslateRequest) any { return &r.Graph }},
	{"livecheck", func(r *TranslateRequest) any { return &r.LiveCheck }},
	{"linear", func(r *TranslateRequest) any { return &r.Linear }},
	{"ordered_sets", func(r *TranslateRequest) any { return &r.OrderedSets }},
	{"split_edges", func(r *TranslateRequest) any { return &r.SplitEdges }},
	{"keep_parallel", func(r *TranslateRequest) any { return &r.KeepParallel }},
	{"verify", func(r *TranslateRequest) any { return &r.Verify }},
	{"registers", func(r *TranslateRequest) any { return &r.Registers }},
	{"timeout_ms", func(r *TranslateRequest) any { return &r.TimeoutMillis }},
	{"quiet", func(r *TranslateRequest) any { return &r.Quiet }},
}

// applyQuery folds URL query parameters into req, accepting the same
// field names as the JSON form.
func applyQuery(req *TranslateRequest, q url.Values) error {
	for _, p := range requestQuery {
		s := q.Get(p.key)
		if s == "" {
			continue
		}
		var err error
		switch f := p.field(req).(type) {
		case *string:
			*f = s
		case **bool:
			var b bool
			b, err = strconv.ParseBool(s)
			*f = &b
		case *bool:
			*f, err = strconv.ParseBool(s)
		case *int:
			*f, err = strconv.Atoi(s)
		case *int64:
			*f, err = strconv.ParseInt(s, 10, 64)
		}
		if err != nil {
			return fmt.Errorf("serve: query parameter %s: %w", p.key, err)
		}
	}
	return nil
}

// Query returns req's options in the query form /v1/translate and
// /v1/batch read beside a raw IR body: every non-zero field but Source,
// so applyQuery rebuilds an equal request.
func (req *TranslateRequest) Query() string {
	var b strings.Builder
	for _, p := range requestQuery {
		var v string
		switch f := p.field(req).(type) {
		case *string:
			v = url.QueryEscape(*f)
		case **bool:
			if *f != nil {
				v = strconv.FormatBool(**f)
			}
		case *bool:
			if *f {
				v = "true"
			}
		case *int:
			if *f != 0 {
				v = strconv.Itoa(*f)
			}
		case *int64:
			if *f != 0 {
				v = strconv.FormatInt(*f, 10)
			}
		}
		if v == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte('&')
		}
		b.WriteString(p.key)
		b.WriteByte('=')
		b.WriteString(v)
	}
	return b.String()
}

// TranslateResponse is the JSON response of POST /v1/translate. In text
// mode the body carries Output and the ResultHeader every other field.
type TranslateResponse struct {
	// Name is the translated function's name.
	Name string `json:"name"`
	// Output is the translated (φ-free) function in the textual IR form.
	Output string `json:"output"`
	// Stats reports what the translation did (the paper's Figure 5-7
	// counters for this one function).
	Stats *outofssa.Stats `json:"stats,omitempty"`
	// CleanedBlocks counts degenerate jump blocks folded away.
	CleanedBlocks int `json:"cleaned_blocks,omitempty"`
	// CacheHits/CacheMisses report the function's analysis-cache
	// behaviour.
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// MemoHit reports that the whole translation was served from the
	// server's translation memo (a structurally identical function was
	// translated before with the same options).
	MemoHit bool `json:"memo_hit,omitempty"`
	// RegsUsed and Spills summarize the register allocation when the
	// request enabled it.
	RegsUsed int `json:"regs_used,omitempty"`
	Spills   int `json:"spills,omitempty"`
	// ElapsedMicros is the server-side wall clock of the translation
	// (admission wait excluded).
	ElapsedMicros float64 `json:"elapsed_us"`
}

// BatchItem is one line of the /v1/batch NDJSON stream: one function's
// outcome, emitted in completion order as the batch makes progress.
type BatchItem struct {
	// Index is the function's position in the request source.
	Index int `json:"index"`
	// Name is the function's name.
	Name string `json:"name"`
	// Output is the translated function's textual IR; empty when the
	// request set quiet, or when the function failed.
	Output string `json:"output,omitempty"`
	// Stats are the function's translation counters (successes only).
	Stats *outofssa.Stats `json:"stats,omitempty"`
	// Error is the per-function failure, when there was one; Pass names
	// the failing pass when the failure was a typed *outofssa.PassError,
	// and Canceled marks a function stopped (or skipped) by cancellation —
	// client disconnect or deadline — rather than rejected by a pass.
	Error    string `json:"error,omitempty"`
	Pass     string `json:"pass,omitempty"`
	Canceled bool   `json:"canceled,omitempty"`
}

// BatchSummary is the trailer line of the /v1/batch NDJSON stream,
// distinguished by "done": true. A stream that ends without one was cut
// short (client disconnect, server hard stop).
type BatchSummary struct {
	Done bool `json:"done"`
	// Funcs counts the functions in the request; OK, Failed and Canceled
	// partition how far they got (canceled functions were cut off by the
	// request deadline).
	Funcs    int `json:"funcs"`
	OK       int `json:"ok"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`
	// Stats aggregates the successful functions' counters via
	// Stats.Accumulate — deterministic for any worker count.
	Stats *outofssa.Stats `json:"stats,omitempty"`
	// ElapsedMicros is the server-side wall clock of the whole batch.
	ElapsedMicros float64 `json:"elapsed_us"`
}

// errorResponse is the JSON body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

// ResultHeader is the response header of a text-mode /v1/translate
// answer, the one a request whose Accept header names text/plain gets.
// The body is exactly TranslateResponse.Output; this header carries every
// other field and every Stats counter in query syntax: key=value pairs
// joined by '&', values escaped as url.QueryEscape escapes them (names are
// arbitrary bytes the parser accepts), floats in the shortest form that
// reads back to the same bits. The keys are the JSON answer's: the JSON
// names, and the Stats counters' Go names. ParseResult rebuilds the
// response. An answer whose header would pass 4 KiB, which only a very
// long function name makes, is the JSON answer instead.
const ResultHeader = "Ssa-Result"

// A resultField is one field in the ResultHeader: a TranslateResponse
// field, or a Stats counter.
type resultField struct {
	key   string // the JSON key: the tag's name, else the Go name
	index int    // the field's index in its struct
	stats bool   // a Stats counter
}

// resultFields lists the ResultHeader's fields in the structs' declaration
// order, TranslateResponse's but Output and Stats and then Stats's, read
// off the structs once so that a field added to either travels without an
// edit here. resultKeys finds them by key.
var (
	resultFields = append(structFields(reflect.TypeFor[TranslateResponse](), false),
		structFields(reflect.TypeFor[outofssa.Stats](), true)...)
	resultKeys = func() map[string]resultField {
		m := make(map[string]resultField, len(resultFields))
		for _, f := range resultFields {
			m[f.key] = f
		}
		return m
	}()
)

// structFields lists the scalar fields of the struct type t.
func structFields(t reflect.Type, stats bool) []resultField {
	var fs []resultField
	for i := range t.NumField() {
		f := t.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if key == "" {
			key = f.Name
		}
		if key != "output" && key != "stats" {
			fs = append(fs, resultField{key, i, stats})
		}
	}
	return fs
}

// appendResult appends r's ResultHeader value to dst.
func (r *TranslateResponse) appendResult(dst []byte) []byte {
	resp, stats := reflect.ValueOf(r).Elem(), reflect.ValueOf(r.Stats)
	for i, f := range resultFields {
		v := resp
		if f.stats {
			if r.Stats == nil {
				break
			}
			v = stats.Elem()
		}
		if i > 0 {
			dst = append(dst, '&')
		}
		dst = append(append(dst, f.key...), '=')
		switch v = v.Field(f.index); v.Kind() {
		case reflect.String:
			dst = append(dst, url.QueryEscape(v.String())...)
		case reflect.Bool:
			dst = strconv.AppendBool(dst, v.Bool())
		case reflect.Int, reflect.Int64:
			dst = strconv.AppendInt(dst, v.Int(), 10)
		case reflect.Uint64:
			dst = strconv.AppendUint(dst, v.Uint(), 10)
		case reflect.Float64:
			// An exponent's '+' would read back as a space unescaped.
			dst = append(dst, url.QueryEscape(strconv.FormatFloat(v.Float(), 'g', -1, 64))...)
		default:
			panic("serve: the ResultHeader cannot carry a " + v.Type().String())
		}
	}
	return dst
}

// ParseResult rebuilds the TranslateResponse of a text-mode /v1/translate
// answer from its ResultHeader value and its body. It skips keys it does
// not know, so a server can add a field before its clients learn it.
func ParseResult(header, output string) (*TranslateResponse, error) {
	r := &TranslateResponse{Output: output}
	for pair := range strings.SplitSeq(header, "&") {
		key, s, _ := strings.Cut(pair, "=")
		f, ok := resultKeys[key]
		if !ok {
			continue
		}
		v := reflect.ValueOf(r).Elem()
		if f.stats {
			if r.Stats == nil {
				r.Stats = new(outofssa.Stats)
			}
			v = reflect.ValueOf(r.Stats).Elem()
		}
		s, err := url.QueryUnescape(s)
		if err == nil {
			err = setField(v.Field(f.index), s)
		}
		if err != nil {
			return nil, fmt.Errorf("serve: %s field %s: %w", ResultHeader, key, err)
		}
	}
	return r, nil
}

// setField parses s into the scalar field v.
func setField(v reflect.Value, s string) (err error) {
	switch v.Kind() {
	case reflect.String:
		v.SetString(s)
	case reflect.Bool:
		var b bool
		b, err = strconv.ParseBool(s)
		v.SetBool(b)
	case reflect.Int, reflect.Int64:
		var n int64
		n, err = strconv.ParseInt(s, 10, 64)
		v.SetInt(n)
	case reflect.Uint64:
		var n uint64
		n, err = strconv.ParseUint(s, 10, 64)
		v.SetUint(n)
	case reflect.Float64:
		var x float64
		x, err = strconv.ParseFloat(s, 64)
		v.SetFloat(x)
	}
	return err
}
