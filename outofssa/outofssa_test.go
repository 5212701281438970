// Tests of the public façade, written against the exported surface only
// (external test package): typed errors, context cancellation, option
// validation, streaming, and the golden quickstart translation.
package outofssa_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/outofssa"
)

// quickstartSrc is the examples/quickstart input: a loop whose φ web is
// non-conventional (the lost-copy shape).
const quickstartSrc = `
func quickstart {
entry:
  x1 = param 0
  jump loop
loop (freq 10):
  x2 = phi entry:x1 loop:x3
  one = const 1
  x3 = add x2 one
  ten = const 10
  c = cmplt x3 ten
  br c loop exit
exit:
  print x2
  ret x2
}
`

// quickstartGolden locks the translated code the recommended quickstart
// configuration produces (value-based coalescing, linear class test, fast
// liveness checking) through the public façade.
const quickstartGolden = `func quickstart {
entry:
  x2' = param 0
  jump loop
loop (freq 10):
  x2 = copy x2'
  one = const 1
  x2' = add x2 one
  ten = const 10
  c = cmplt x2' ten
  br c loop exit
exit:
  print x2
  ret x2
}
`

// badSSASrc double-defines x, so strict-SSA verification rejects it.
const badSSASrc = `
func badfunc {
entry:
  x = const 1
  x = const 2
  ret x
}
`

func TestQuickstartGolden(t *testing.T) {
	f, err := outofssa.Parse(quickstartSrc)
	if err != nil {
		t.Fatal(err)
	}
	orig := outofssa.Clone(f)
	tr, err := outofssa.New(
		outofssa.WithStrategy(outofssa.Value),
		outofssa.WithLinearClassTest(true),
		outofssa.WithFastLiveness(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Translate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.String(); got != quickstartGolden {
		t.Fatalf("translated code drifted from golden:\n--- got\n%s--- want\n%s", got, quickstartGolden)
	}
	if res.Stats.Phis != 1 || res.Stats.Affinities != 3 || res.Stats.FinalCopies != 1 {
		t.Fatalf("stats drifted: phis=%d affinities=%d final=%d",
			res.Stats.Phis, res.Stats.Affinities, res.Stats.FinalCopies)
	}
	// And the translation is observably equivalent to the SSA original.
	for _, p := range [][]int64{{0}, {5}, {9}} {
		want, err := outofssa.Interpret(orig, p, 10000)
		if err != nil {
			t.Fatal(err)
		}
		got, err := outofssa.Interpret(f, p, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if !outofssa.Equivalent(want, got) {
			t.Fatalf("not equivalent on %v", p)
		}
	}
}

func TestPassErrorThroughAPI(t *testing.T) {
	f, err := outofssa.Parse(badSSASrc)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := outofssa.New() // verification on by default
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Translate(context.Background(), f)
	if err == nil {
		t.Fatal("non-SSA input must fail verification")
	}
	if !errors.Is(res.Err, err) && res.Err == nil {
		t.Fatal("Result.Err must carry the failure")
	}
	var pe *outofssa.PassError
	if !errors.As(err, &pe) {
		t.Fatalf("error is not a *PassError: %v", err)
	}
	if pe.Func != "badfunc" || pe.Pass != "verify-ssa" || pe.Err == nil {
		t.Fatalf("PassError incomplete: %+v", pe)
	}

	// The same failure is reachable through the joined batch error.
	good := outofssa.MustParse(quickstartSrc)
	bad := outofssa.MustParse(badSSASrc)
	batch, err := tr.TranslateAll(context.Background(), []*outofssa.Func{good, bad})
	if err == nil {
		t.Fatal("batch with a bad function must report an error")
	}
	if batch.Results[0].Err != nil {
		t.Fatalf("healthy function failed: %v", batch.Results[0].Err)
	}
	pe = nil
	if !errors.As(batch.Err(), &pe) || pe.Func != "badfunc" {
		t.Fatalf("batch error does not expose the *PassError: %v", batch.Err())
	}
}

// TestTranslateAllCancellation: a batch whose context is already canceled
// translates nothing, and every result carries the context's error. The
// pipeline tests TestRunBatchCancellation and
// TestRunBatchStealingCancellation cover cancellation mid-batch.
func TestTranslateAllCancellation(t *testing.T) {
	prof := outofssa.DefaultProfile("cancel", 7)
	prof.Funcs = 16
	fns := outofssa.Generate(prof)

	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := outofssa.New(outofssa.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := tr.TranslateAll(cctx, fns)
	if err == nil {
		t.Fatal("canceled batch must report an error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("batch error hides the cancellation: %v", err)
	}
	for i := range fns {
		r := batch.Results[i]
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("func %d: want context.Canceled, got %v", i, r.Err)
		}
		if r.Stats != nil {
			t.Fatalf("func %d was translated after cancellation", i)
		}
	}
}

func TestStreamDeliversAll(t *testing.T) {
	for _, workers := range []int{1, 4} {
		prof := outofssa.DefaultProfile("stream", 21)
		prof.Funcs = 12
		fns := outofssa.Generate(prof)
		tr, err := outofssa.New(outofssa.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, len(fns))
		for i, r := range tr.Stream(context.Background(), fns) {
			seen[i]++
			if r.Err != nil || r.Stats == nil || r.Func != fns[i] {
				t.Fatalf("workers=%d func %d: bad streamed result %+v", workers, i, r)
			}
		}
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d func %d yielded %d times", workers, i, c)
			}
		}

		// Breaking out early abandons the rest without deadlocking.
		fns = outofssa.Generate(prof)
		got := 0
		for range tr.Stream(context.Background(), fns) {
			got++
			break
		}
		if got != 1 {
			t.Fatalf("workers=%d: broke after %d results", workers, got)
		}
	}
}

// TestStreamAbandonmentLeaksNoGoroutines pins down the property the serve
// layer depends on: a client that walks away from a streamed batch (breaks
// out of the iter.Seq2) must not strand the workers. Every abandoned
// Stream's goroutines — the one running the batch and the workers still
// mid-function — must exit once the yield stops pulling, at one worker and
// at four.
func TestStreamAbandonmentLeaksNoGoroutines(t *testing.T) {
	prof := outofssa.DefaultProfile("leak", 33)
	prof.Funcs = 24
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		tr, err := outofssa.New(outofssa.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			fns := outofssa.Generate(prof)
			for range tr.Stream(context.Background(), fns) {
				break // abandon with ~all of the batch unconsumed
			}
		}
	}
	// The workers observe the cancellation at their next pass boundary;
	// give them a bounded window to unwind rather than asserting
	// instantaneous exit.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC() // nudge any parked finalizer-adjacent goroutines
		if n := runtime.NumGoroutine(); n <= before {
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked by abandoned streams: %d before, %d after\n%s",
				before, n, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseFailureModes(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{
			name:    "unknown opcode",
			src:     "func f {\nentry:\n  x = frobnicate y\n  ret x\n}",
			wantErr: "unknown op",
		},
		{
			name:    "undefined block target",
			src:     "func f {\nentry:\n  x = const 1\n  jump nowhere\n}",
			wantErr: "undefined block",
		},
		{
			name:    "undefined branch target",
			src:     "func f {\nentry:\n  c = param 0\n  br c entry missing\n}",
			wantErr: "undefined block",
		},
		{
			name:    "duplicate label",
			src:     "func f {\nentry:\n  x = const 1\n  jump next\nnext:\n  print x\n  jump next\nnext:\n  ret x\n}",
			wantErr: "duplicate label",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := outofssa.Parse(c.src)
			if err == nil {
				t.Fatalf("no error for %q", c.src)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}

	// The happy path still parses, and ParseAll propagates the same
	// failures for any function in the stream.
	if _, err := outofssa.Parse(quickstartSrc); err != nil {
		t.Fatal(err)
	}
	stream := quickstartSrc + "\nfunc g {\nentry:\n  jump gone\n}\n"
	if _, err := outofssa.ParseAll(stream); err == nil || !strings.Contains(err.Error(), "undefined block") {
		t.Fatalf("ParseAll missed the undefined target: %v", err)
	}
}

func TestStrategyTable(t *testing.T) {
	names := outofssa.StrategyNames()
	if len(names) != len(outofssa.Strategies) {
		t.Fatalf("StrategyNames has %d entries, want %d", len(names), len(outofssa.Strategies))
	}
	for _, n := range names {
		s, err := outofssa.ParseStrategy(n)
		if err != nil {
			t.Fatalf("table name %q does not parse: %v", n, err)
		}
		if got := outofssa.StrategyNames()[indexOf(t, names, n)]; got != n {
			t.Fatalf("name %q resolved inconsistently", n)
		}
		// Round trip: the resolved strategy maps back to the same name.
		if _, err := outofssa.New(outofssa.WithStrategy(s)); err != nil {
			t.Fatalf("WithStrategy(%v) invalid: %v", s, err)
		}
	}
	// The historical flag spellings stay valid.
	for name, want := range map[string]outofssa.Strategy{
		"intersect": outofssa.Intersect, "sreedhar1": outofssa.SreedharI,
		"chaitin": outofssa.Chaitin, "value": outofssa.Value,
		"sreedhar3": outofssa.SreedharIII, "valueis": outofssa.ValueIS,
		"sharing": outofssa.Sharing,
	} {
		got, err := outofssa.ParseStrategy(name)
		if err != nil || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	// A value past the table prints as a number instead of panicking.
	if got := outofssa.Strategy(len(names)).String(); got != "Strategy(7)" {
		t.Fatalf("Strategy(7).String() = %q", got)
	}
	// An unknown name, including the retired "optimistic", fails with an
	// error listing every valid name.
	for _, name := range []string{"bogus", "optimistic"} {
		_, err := outofssa.ParseStrategy(name)
		if err == nil {
			t.Fatalf("ParseStrategy(%q) accepted an unknown name", name)
		}
		if !strings.HasSuffix(err.Error(), "(valid: "+strings.Join(names, ", ")+")") {
			t.Fatalf("unknown-strategy error must list the valid names: %v", err)
		}
	}
}

func indexOf(t *testing.T, names []string, n string) int {
	t.Helper()
	for i, x := range names {
		if x == n {
			return i
		}
	}
	t.Fatalf("%q not found", n)
	return -1
}

func TestOptionValidation(t *testing.T) {
	// Inconsistent machinery through the escape hatch is rejected.
	if _, err := outofssa.New(outofssa.WithOptions(outofssa.Options{
		Strategy: outofssa.Value, UseGraph: true, LiveCheck: true,
	})); err == nil {
		t.Fatal("UseGraph+LiveCheck must be rejected")
	}
	// WithStrategy(SreedharIII) normalizes to a usable configuration: New
	// validates, and validation rejects SreedharIII without Virtualize.
	if _, err := outofssa.New(outofssa.WithStrategy(outofssa.SreedharIII)); err != nil {
		t.Fatal(err)
	}
	// Functional options are last-wins and keep the combination legal: New
	// succeeds only if the graph option turned fast liveness off, and the
	// translation then builds the interference graph.
	tr, err := outofssa.New(
		outofssa.WithFastLiveness(true),
		outofssa.WithInterferenceGraph(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Translate(context.Background(), outofssa.MustParse(quickstartSrc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GraphBytes == 0 {
		t.Fatalf("graph option built no interference graph: %+v", res.Stats)
	}
	// New validates rather than repairs: explicitly conflicting options
	// are rejected, and a later option overrides a strategy implication.
	if _, err := outofssa.New(outofssa.WithOptions(outofssa.Options{
		Strategy: outofssa.Sharing + 1,
	})); err == nil {
		t.Fatal("a strategy past the table must be rejected, not run as Value")
	}
	if _, err := outofssa.New(
		outofssa.WithStrategy(outofssa.SreedharIII),
		outofssa.WithVirtualization(false),
	); err == nil {
		t.Fatal("explicitly de-virtualized SreedharIII must be rejected")
	}
	if _, err := outofssa.New(outofssa.WithRegisters(-1)); err == nil {
		t.Fatal("negative register count must be rejected")
	}
	// The register count is bounded at 1,024, so a count from an untrusted
	// request cannot size the pool: the bound is accepted, one more is
	// refused naming the bound.
	if _, err := outofssa.New(outofssa.WithRegisters(1024)); err != nil {
		t.Fatalf("1024 registers: %v", err)
	}
	if _, err := outofssa.New(outofssa.WithRegisters(1025)); err == nil || !strings.Contains(err.Error(), "1024") {
		t.Fatalf("1025 registers: %v, want an error naming the bound 1024", err)
	}
	if _, err := outofssa.New(outofssa.WithStrategy(outofssa.Strategy(99))); err == nil {
		t.Fatal("out-of-range strategy must be rejected")
	}
}

func TestRegisters(t *testing.T) {
	f := outofssa.MustParse(quickstartSrc)
	tr, err := outofssa.New(outofssa.WithRegisters(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Translate(context.Background(), f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Alloc == nil || res.Alloc.RegsUsed < 1 || res.Alloc.RegsUsed > 4 {
		t.Fatalf("allocation missing or out of range: %+v", res.Alloc)
	}
}

// TestBatchMatchesSequential: the public batch API is deterministic — any
// worker count produces the aggregate statistics (and IR) of a sequential
// run.
func TestBatchMatchesSequential(t *testing.T) {
	prof := outofssa.DefaultProfile("det", 33)
	prof.Funcs = 10
	base := outofssa.Generate(prof)

	var ref *outofssa.BatchResult
	var refText []string
	for _, workers := range []int{1, 4} {
		fns := make([]*outofssa.Func, len(base))
		for i, f := range base {
			fns[i] = outofssa.Clone(f)
		}
		tr, err := outofssa.New(outofssa.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := tr.TranslateAll(context.Background(), fns)
		if err != nil {
			t.Fatal(err)
		}
		text := make([]string, len(fns))
		for i, f := range fns {
			text[i] = f.String()
		}
		if ref == nil {
			ref, refText = batch, text
			continue
		}
		if batch.Stats.FinalCopies != ref.Stats.FinalCopies || batch.Stats.Phis != ref.Stats.Phis ||
			batch.Stats.RemainingWeight != ref.Stats.RemainingWeight {
			t.Fatalf("workers=%d: aggregate stats differ: %+v vs %+v", workers, batch.Stats, ref.Stats)
		}
		for i := range text {
			if text[i] != refText[i] {
				t.Fatalf("workers=%d func %d: IR differs from sequential run", workers, i)
			}
		}
	}
}
