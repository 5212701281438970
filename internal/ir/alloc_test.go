package ir_test

import (
	"context"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
	"repro/outofssa"
)

// wireFunc returns the text of a DefaultProfile function with 24 blocks
// (80 instructions, 48 variables once parsed) and its translation under
// the default strategy: a typical ssad request and response.
func wireFunc(tb testing.TB) (src string, out *ir.Func) {
	tb.Helper()
	f := cfggen.Generate(cfggen.DefaultProfile("bench", 0))[9]
	src = f.String()
	tr, err := outofssa.New()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := tr.Translate(context.Background(), ir.MustParse(src))
	if err != nil {
		tb.Fatal(err)
	}
	return src, res.Func
}

// TestWireAllocs bounds the allocations of parsing a request, printing its
// translation and decoding the request's function from its binary
// encoding, with about 2x headroom over the measured 64, 13 and 13; the
// reference parser and printer take 489 and 347, the version-1 JSON
// decoder 678.
func TestWireAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds its own allocations")
	}
	src, out := wireFunc(t)
	in := ir.MustParse(src)
	bin := ir.AppendBinary(nil, in)
	js, err := ir.EncodeJSON(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		bound     float64
		prod, ref func()
	}{
		{"ParseAll", 130, func() { ir.ParseAll(src) }, func() { ir.RefParseAll(src) }},
		{"String", 26, func() { _ = out.String() }, func() { _ = ir.RefString(out) }},
		{"DecodeBinary", 24, func() { ir.DecodeBinary(bin) }, func() { ir.DecodeJSON(js) }},
	} {
		if got := testing.AllocsPerRun(20, c.prod); got > c.bound {
			t.Errorf("%s: %.0f allocations, bound %.0f", c.name, got, c.bound)
		}
		if ref := testing.AllocsPerRun(5, c.ref); ref <= c.bound {
			t.Errorf("%s: the reference takes only %.0f allocations; bound %.0f has no teeth", c.name, ref, c.bound)
		}
	}
}

func BenchmarkParseAll(b *testing.B) {
	src, _ := wireFunc(b)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ir.ParseAll(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkString(b *testing.B) {
	_, out := wireFunc(b)
	b.ReportAllocs()
	for b.Loop() {
		_ = out.String()
	}
}
