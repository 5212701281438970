package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/outofssa"
)

// TestApplyQueryNamesFirstMalformedParameter: with two malformed toggles,
// the error names the one earlier in requestQuery, on every run.
func TestApplyQueryNamesFirstMalformedParameter(t *testing.T) {
	q, err := url.ParseQuery("verify=y&virtualize=x")
	if err != nil {
		t.Fatal(err)
	}
	for range 50 {
		var req TranslateRequest
		err := applyQuery(&req, q)
		if err == nil || !strings.Contains(err.Error(), "query parameter virtualize:") {
			t.Fatalf("got %v, want the virtualize parameter named", err)
		}
	}
}

// TestRequestQueryRoundTrip: a request with every field set, toggles both
// ways and a negative register count included, comes back equal from its
// query form, and the negative count is still refused when the translator
// is built.
func TestRequestQueryRoundTrip(t *testing.T) {
	on, off := true, false
	want := TranslateRequest{
		Strategy:      "sreedhar3",
		Virtualize:    &on,
		Graph:         &off,
		LiveCheck:     &on,
		Linear:        &off,
		OrderedSets:   &on,
		SplitEdges:    &off,
		KeepParallel:  &on,
		Verify:        &off,
		Registers:     -3,
		TimeoutMillis: 1500,
		Quiet:         true,
	}
	v := reflect.ValueOf(want)
	for i := range v.NumField() {
		if name := v.Type().Field(i).Name; name != "Source" && v.Field(i).IsZero() {
			t.Fatalf("TranslateRequest.%s is not set; give it a value here", name)
		}
	}
	q, err := url.ParseQuery(want.Query())
	if err != nil {
		t.Fatal(err)
	}
	var got TranslateRequest
	if err := applyQuery(&got, q); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("query %q rebuilt\n%+v, want\n%+v", want.Query(), got, want)
	}
	if _, err := got.translator(); err == nil || err.Error() != "outofssa: register count -3 out of range [0, 1024]" {
		t.Fatalf("translator(): %v, want the negative register count refused", err)
	}
	if q := (&TranslateRequest{Source: "func f {}"}).Query(); q != "" {
		t.Fatalf("a request with only a source has query %q, want none", q)
	}
}

// TestWantsText: text mode takes an Accept header naming text/plain with
// a quality above zero; q=0 refuses it, and */* or no header means JSON.
func TestWantsText(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                                  false,
		"*/*":                               false,
		"application/json":                  false,
		"text/plain":                        true,
		" Text/Plain ; charset=utf-8":       true,
		"application/json, text/plain;q=.5": true,
		"text/plain;q=0":                    false,
		"text/plain; q=0.000, */*":          false,
		"text/plain;q=x":                    false,
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/translate", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		if got := wantsText(r); got != want {
			t.Errorf("Accept %q: wantsText %v, want %v", accept, got, want)
		}
	}
}

// TestParseRequestDoesNotPresizeDeclaredLength: a request that declares
// the largest body the server takes and then sends a few bytes must not
// make the server allocate the declared length before the bytes arrive.
func TestParseRequestDoesNotPresizeDeclaredLength(t *testing.T) {
	const declared = 16 << 20
	for _, body := range []string{"", "func f {\nentry:\n"} {
		r := httptest.NewRequest(http.MethodPost, "/v1/translate", strings.NewReader(body))
		r.ContentLength = declared
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = parseRequest(r)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > declared/16 {
			t.Errorf("body %q under a declared %d bytes: parseRequest allocated %d bytes", body, declared, got)
		}
	}
}

// TestWriteTextRefusesALongHeader: a name long enough to push the
// ResultHeader past its bound leaves the answer unwritten, for the JSON
// path to write.
func TestWriteTextRefusesALongHeader(t *testing.T) {
	w := httptest.NewRecorder()
	if writeText(w, &TranslateResponse{Name: strings.Repeat("n", maxResultHeader), Output: "func x {}"}) {
		t.Error("writeText took a header over its bound")
	}
	if w.Body.Len() != 0 || len(w.Header()) != 0 {
		t.Errorf("writeText wrote %v %q", w.Header(), w.Body)
	}
}

// fullResponse gives every TranslateResponse and Stats field a distinct
// non-zero value.
func fullResponse(t *testing.T) *TranslateResponse {
	t.Helper()
	r := &TranslateResponse{Stats: new(outofssa.Stats)}
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := range v.NumField() {
			n++
			switch f := v.Field(i); f.Kind() {
			case reflect.String:
				f.SetString("fn-" + strings.Repeat("x", n))
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(n) * 1_000_003)
			case reflect.Uint64:
				f.SetUint(uint64(n) << 40)
			case reflect.Float64:
				f.SetFloat(float64(n)/3 + 1e9)
			case reflect.Pointer:
				fill(f.Elem())
			default:
				t.Fatalf("%s.%s has kind %s; teach this test and the result header about it",
					v.Type().Name(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	fill(reflect.ValueOf(r).Elem())
	return r
}

// TestResultHeaderKeepsEveryField gives every TranslateResponse field and
// every Stats counter a distinct non-zero value and round-trips the
// response through the ResultHeader: a field the header drops comes back
// zero and fails here. The header's keys are the keys of the JSON form.
func TestResultHeaderKeepsEveryField(t *testing.T) {
	want := fullResponse(t)
	header := string(want.appendResult(nil))
	got, err := ParseResult(header, want.Output)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("header %q rebuilt\n%+v\n%+v, want\n%+v\n%+v", header, *got, *got.Stats, *want, *want.Stats)
	}

	q, err := url.ParseQuery(header)
	if err != nil {
		t.Fatalf("the header is not in query syntax: %v", err)
	}
	js, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var obj, stats map[string]json.RawMessage
	if err := json.Unmarshal(js, &obj); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(obj["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	var jsonKeys, headerKeys []string
	for k := range obj {
		if k != "output" && k != "stats" {
			jsonKeys = append(jsonKeys, k)
		}
	}
	for k := range stats {
		jsonKeys = append(jsonKeys, k)
	}
	for k := range q {
		headerKeys = append(headerKeys, k)
	}
	slices.Sort(jsonKeys)
	slices.Sort(headerKeys)
	if !slices.Equal(headerKeys, jsonKeys) {
		t.Fatalf("header keys %v, want the JSON keys %v", headerKeys, jsonKeys)
	}
}

// TestResultHeaderAwkwardValues: names are arbitrary bytes the parser
// accepts, and floats must come back bit for bit, exponents included.
func TestResultHeaderAwkwardValues(t *testing.T) {
	for _, r := range []*TranslateResponse{
		{Name: "f\x01\x7f\xff é&x=y+z%20"},
		{Name: "g", ElapsedMicros: 1e21, Stats: &outofssa.Stats{RemainingWeight: 0.1 + 0.2}},
		{Name: "h", ElapsedMicros: 5e-324, Stats: &outofssa.Stats{RemainingWeight: 1.7976931348623157e308}},
	} {
		header := string(r.appendResult(nil))
		if strings.ContainsFunc(header, func(c rune) bool { return c < 0x21 || c > 0x7e }) {
			t.Errorf("header %q holds a byte a header value cannot", header)
		}
		got, err := ParseResult(header, "")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("header %q rebuilt %+v, want %+v", header, got, r)
		}
	}
}

// TestParseResultRejectsMalformedValues names the key of a value that
// does not parse, and skips keys it does not know.
func TestParseResultRejectsMalformedValues(t *testing.T) {
	if _, err := ParseResult("name=f&cache_hits=-1", ""); err == nil || !strings.Contains(err.Error(), "cache_hits") {
		t.Fatalf("got %v, want the cache_hits value refused", err)
	}
	r, err := ParseResult("name=f&added_later=1&Blocks=3", "out")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "f" || r.Output != "out" || r.Stats == nil || r.Stats.Blocks != 3 {
		t.Fatalf("got %+v", r)
	}
}
