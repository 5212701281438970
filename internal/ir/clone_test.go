package ir_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
	"repro/outofssa"
)

const cloneSrc = `
func clonetest {
entry:
  x = param 0
  y = param 1
  c = cmplt x y
  br c a b
a:
  s = add x y
  jump join
b:
  t = sub x y
  c2 = copy t
  jump join
join:
  m = phi a:s b:c2
  print m
  ret m
}
`

// TestCloneIntoMatchesClone: CloneInto produces the same function text as
// Clone, and the rebuilt destination is fully detached from the source.
func TestCloneIntoMatchesClone(t *testing.T) {
	src, err := ir.Parse(cloneSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := ir.Clone(src).String()
	dst := ir.NewFunc("")
	if got := ir.CloneInto(dst, src).String(); got != want {
		t.Fatalf("CloneInto differs from Clone:\n--- Clone\n%s--- CloneInto\n%s", want, got)
	}
	// Mutating the copy must not touch the source.
	dst.Blocks[0].Instrs[0].Defs[0] = 1
	dst.Vars[0].Name = "zzz"
	if src.String() == dst.String() {
		t.Fatal("mutating the CloneInto copy leaked into the source")
	}
}

// TestCloneIntoReuse: recycling one destination across many CloneInto calls
// — including after the destination grew (extra vars, blocks, instructions)
// — always reproduces the source exactly.
func TestCloneIntoReuse(t *testing.T) {
	src, err := ir.Parse(cloneSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := src.String()
	dst := ir.NewFunc("")
	for round := 0; round < 5; round++ {
		ir.CloneInto(dst, src)
		if got := dst.String(); got != want {
			t.Fatalf("round %d: CloneInto drifted:\n%s", round, got)
		}
		// Grow the destination so the next round must rewind arenas and
		// truncate slices.
		v := dst.NewVar("extra")
		b := dst.NewBlock("extra")
		b.Instrs = append(b.Instrs, dst.NewCopy(v, v), dst.NewInstr(ir.OpRet))
	}
}

// TestCloneIntoSteadyStateAllocs: warm CloneInto into a recycled
// destination performs no heap allocation.
func TestCloneIntoSteadyStateAllocs(t *testing.T) {
	src, err := ir.Parse(cloneSrc)
	if err != nil {
		t.Fatal(err)
	}
	dst := ir.NewFunc("")
	ir.CloneInto(dst, src) // warm the arenas and slice capacities
	if n := testing.AllocsPerRun(50, func() { ir.CloneInto(dst, src) }); n > 0 {
		t.Fatalf("warm CloneInto allocates %v times per run, want 0", n)
	}
}

// translatedAt returns the source of a DefaultProfile function of stmts
// statements and its translation under the default strategy.
func translatedAt(t *testing.T, seed int64, stmts int) (src string, out *ir.Func) {
	t.Helper()
	tr, err := outofssa.New()
	if err != nil {
		t.Fatal(err)
	}
	p := cfggen.DefaultProfile("clonefresh", seed)
	p.Funcs, p.MinStmts, p.MaxStmts = 1, stmts, stmts
	src = cfggen.Generate(p)[0].String()
	res, err := tr.Translate(context.Background(), ir.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	return src, res.Func
}

// freshParseAllocs translates functions of 10, 100 and 1,000 statements
// and rebuilds fresh parses of each input into its translation with
// rebuild, which is handed the translation and its encoding. Every
// rebuild must take at most 12 allocations and print as the translation
// does.
func freshParseAllocs(t *testing.T, rebuild func(dst, out *ir.Func, enc []byte)) {
	if raceEnabled {
		t.Skip("the race runtime adds its own allocations")
	}
	const runs = 10
	for _, stmts := range []int{10, 100, 1000} {
		src, out := translatedAt(t, 3, stmts)
		enc := ir.AppendBinary(nil, out)
		fresh := make([]*ir.Func, runs+1) // AllocsPerRun adds a warm-up call
		for i := range fresh {
			fresh[i] = ir.MustParse(src)
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			rebuild(fresh[next], out, enc)
			next++
		})
		if got > 12 {
			t.Errorf("%d output blocks: rebuilding a fresh parse takes %v allocations, want at most 12",
				len(out.Blocks), got)
		}
		if s := fresh[0].String(); s != out.String() {
			t.Fatalf("%d output blocks: the rebuilt function differs from its source:\n%s", len(out.Blocks), s)
		}
	}
}

// TestCloneIntoFreshParseAllocs: cloning a translated function into a
// fresh parse of its input takes the same few allocations at every
// function size. The parsed records' lists are exactly as long as the
// input's, so appending the output's lists to them took about one
// allocation per output block.
func TestCloneIntoFreshParseAllocs(t *testing.T) {
	freshParseAllocs(t, func(dst, out *ir.Func, _ []byte) { ir.CloneInto(dst, out) })
}

// TestDecodeBinaryIntoFreshParseAllocs: decoding a translation's encoding
// into a fresh parse of its input, as a memo hit does, stays within
// CloneInto's bound at every function size.
func TestDecodeBinaryIntoFreshParseAllocs(t *testing.T) {
	freshParseAllocs(t, func(dst, _ *ir.Func, enc []byte) {
		if err := ir.DecodeBinaryInto(dst, enc); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeBinaryIntoReuse decodes translations of 1,000, 10 and 1,000
// statements into one destination: whatever it held before, each result
// prints as a fresh DecodeBinary of the same bytes does.
func TestDecodeBinaryIntoReuse(t *testing.T) {
	dst := ir.NewFunc("")
	for i, stmts := range []int{1000, 10, 1000} {
		_, out := translatedAt(t, int64(i), stmts)
		enc := ir.AppendBinary(nil, out)
		want, err := ir.DecodeBinary(enc)
		if err != nil {
			t.Fatal(err)
		}
		if err := ir.DecodeBinaryInto(dst, enc); err != nil {
			t.Fatal(err)
		}
		if got := dst.String(); got != want.String() {
			t.Fatalf("%d statements: the reused destination differs from a fresh decode:\n%s", stmts, got)
		}
		if err := ir.Verify(dst); err != nil {
			t.Fatalf("%d statements: %v", stmts, err)
		}
	}
}

// TestCloneIntoRestoreLoopAllocs: restoring a pristine function over its
// translated working copy, as perfbench's restore does between batches,
// takes at most three allocations the first time (the record pool and the
// two list arrays, grown to what translation appended) and none after
// that: every record gets back the block whose lists it grew to hold,
// wherever edge splits and jump-block cleanup moved it.
func TestCloneIntoRestoreLoopAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds its own allocations")
	}
	src, _ := wireFunc(t)
	pristine := ir.MustParse(src)
	tr, err := outofssa.New()
	if err != nil {
		t.Fatal(err)
	}
	dst := ir.NewFunc("")
	for round := 0; round < 10; round++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ir.CloneInto(dst, pristine)
		runtime.ReadMemStats(&after)
		switch n := after.Mallocs - before.Mallocs; {
		case round == 1 && n > 3:
			t.Fatalf("the first restore takes %d allocations, want at most 3", n)
		case round > 1 && n != 0:
			t.Fatalf("restore %d takes %d allocations, want 0", round, n)
		}
		if got, want := dst.String(), pristine.String(); got != want {
			t.Fatalf("restore %d differs from its source:\n%s", round, got)
		}
		if _, err := tr.Translate(context.Background(), dst); err != nil {
			t.Fatal(err)
		}
	}
}
