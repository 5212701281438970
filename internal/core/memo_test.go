package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
)

const memoSrc = `
func m {
entry:
  x = param 0
  y = param 1
  c = cmplt x y
  br c a b
a:
  s = add x y
  jump join
b:
  d = sub x y
  jump join
join:
  r = phi a:s b:d
  print r
  ret r
}
`

func memoTranslate(t *testing.T, f *ir.Func, opt Options) *Stats {
	t.Helper()
	st, err := TranslateInto(f, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestMemoRoundTrip: store a translation, look it up under the same key,
// materialize into a fresh copy of the input — structure identical to the
// stored output, stats identical modulo phase nanos, input var identities
// (names, pins) restored.
func TestMemoRoundTrip(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	in := ir.MustParse(memoSrc)
	in.Vars[0].Reg = "R7" // a pin that must survive materialization

	work := ir.Clone(in)
	key := MemoKeyFor(work, opt)
	inVars := len(work.Vars)
	st := memoTranslate(t, work, opt)

	m := NewMemo(0, 0)
	if m.Lookup(key) != nil {
		t.Fatal("lookup on an empty memo hit")
	}
	m.Store(key, work, inVars, st, nil)
	e := m.Lookup(key)
	if e == nil {
		t.Fatal("stored entry not found")
	}
	ms := m.Stats()
	if ms.Hits != 1 || ms.Misses != 1 || ms.Entries != 1 || ms.Bytes <= 0 {
		t.Fatalf("stats after store+miss+hit: %+v", ms)
	}

	target := ir.Clone(in)
	got := e.Materialize(target, nil)
	if target.String() != work.String() {
		t.Fatalf("materialized function differs from the translated one:\n%s\nvs\n%s", target, work)
	}
	if target.Name != in.Name {
		t.Fatalf("function name not preserved: %q", target.Name)
	}
	if target.Vars[0].Reg != "R7" {
		t.Fatal("input register pin lost through materialization")
	}
	zero := *st
	zero.InsertNanos, zero.AnalyzeNanos, zero.CoalesceNanos, zero.RewriteNanos = 0, 0, 0, 0
	gotv := *got
	if gotv != zero {
		t.Fatalf("materialized stats differ:\n%+v\nvs\n%+v", gotv, zero)
	}
}

// TestMemoKeySeparatesOptions: the same input under different options (and
// different inputs under the same options) must key separately.
func TestMemoKeySeparatesOptions(t *testing.T) {
	f := ir.MustParse(memoSrc)
	a := MemoKeyFor(f, Options{Strategy: Sharing, Linear: true})
	b := MemoKeyFor(f, Options{Strategy: SreedharIII, Virtualize: true})
	c := MemoKeyFor(f, Options{Strategy: Sharing})
	if a == b || a == c || b == c {
		t.Fatalf("option variants collided: %v %v %v", a, b, c)
	}
	g := ir.MustParse(memoSrc)
	g.Entry().Instrs[0].Aux = 1
	g.MarkCodeMutated()
	if MemoKeyFor(g, Options{Strategy: Sharing, Linear: true}) == a {
		t.Fatal("structurally different inputs collided")
	}
}

// TestOptionsWordGolden pins the options half of the memo key. Keys
// persist in ssad -memo-file snapshots, so a change to optionsWord's
// packing would turn every stored entry into a miss after an upgrade. The
// rows cover the façade default, each Figure 5 option set (fig5Options in
// outofssa/bench) and each single toggle.
func TestOptionsWordGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		want uint64
	}{
		{"default", Options{Strategy: Sharing, Linear: true, LiveCheck: true}, 0xc6},
		{"fig5/Intersect", Options{Strategy: Intersect, Linear: true, LiveCheck: true}, 0xc0},
		{"fig5/SreedharI", Options{Strategy: SreedharI, Linear: true, LiveCheck: true}, 0xc1},
		{"fig5/Chaitin", Options{Strategy: Chaitin, Linear: true, LiveCheck: true}, 0xc2},
		{"fig5/Value", Options{Strategy: Value, Linear: true, LiveCheck: true}, 0xc3},
		{"fig5/SreedharIII", Options{Strategy: SreedharIII, Virtualize: true, UseGraph: true}, 0x34},
		{"fig5/ValueIS", Options{Strategy: ValueIS, Linear: true, LiveCheck: true}, 0xc5},
		{"fig5/Sharing", Options{Strategy: Sharing, Linear: true, LiveCheck: true}, 0xc6},
		{"zero", Options{}, 0x0},
		{"Virtualize", Options{Virtualize: true}, 0x10},
		{"UseGraph", Options{UseGraph: true}, 0x20},
		{"LiveCheck", Options{LiveCheck: true}, 0x40},
		{"Linear", Options{Linear: true}, 0x80},
		{"OrderedSets", Options{OrderedSets: true}, 0x100},
		{"SplitCriticalEdges", Options{SplitCriticalEdges: true}, 0x200},
		{"KeepParallelCopies", Options{KeepParallelCopies: true}, 0x400},
	} {
		if got := optionsWord(tc.opt); got != tc.want {
			t.Errorf("%s: optionsWord = %#x, want %#x", tc.name, got, tc.want)
		}
	}
}

// TestMemoStoreIdempotent: storing an existing key changes nothing — the
// racing-workers contract.
func TestMemoStoreIdempotent(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	in := ir.MustParse(memoSrc)
	work := ir.Clone(in)
	key := MemoKeyFor(work, opt)
	inVars := len(work.Vars)
	st := memoTranslate(t, work, opt)

	m := NewMemo(0, 0)
	m.Store(key, work, inVars, st, nil)
	first := m.Lookup(key)
	m.Store(key, work, inVars, st, nil)
	if m.Lookup(key) != first {
		t.Fatal("duplicate store replaced the entry")
	}
	if ms := m.Stats(); ms.Entries != 1 || ms.Evictions != 0 {
		t.Fatalf("duplicate store changed accounting: %+v", ms)
	}
}

// TestMemoEviction: the entry bound evicts least-recently-used first; a
// touched entry survives over an older untouched one.
func TestMemoEviction(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	m := NewMemo(2, -1)

	store := func(aux int64) MemoKey {
		f := ir.MustParse(memoSrc)
		f.Entry().Instrs[0].Aux = aux
		f.MarkCodeMutated()
		key := MemoKeyFor(f, opt)
		inVars := len(f.Vars)
		st := memoTranslate(t, f, opt)
		m.Store(key, f, inVars, st, nil)
		return key
	}

	k1 := store(1)
	k2 := store(2)
	if m.Lookup(k1) == nil { // touch k1: k2 becomes the LRU victim
		t.Fatal("k1 missing before eviction")
	}
	k3 := store(3)
	if m.Lookup(k2) != nil {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if m.Lookup(k1) == nil || m.Lookup(k3) == nil {
		t.Fatal("recently used entries were evicted")
	}
	ms := m.Stats()
	if ms.Evictions != 1 || ms.Entries != 2 {
		t.Fatalf("eviction accounting: %+v", ms)
	}

	// The byte budget bounds too: a tiny budget keeps at most one entry
	// (the floor the eviction loop guarantees).
	mb := NewMemo(-1, 1)
	store2 := func(aux int64) {
		f := ir.MustParse(memoSrc)
		f.Entry().Instrs[0].Aux = aux
		f.MarkCodeMutated()
		key := MemoKeyFor(f, opt)
		inVars := len(f.Vars)
		st := memoTranslate(t, f, opt)
		mb.Store(key, f, inVars, st, nil)
	}
	store2(1)
	store2(2)
	store2(3)
	if ms := mb.Stats(); ms.Entries != 1 || ms.Evictions != 2 {
		t.Fatalf("byte-budget accounting: %+v", ms)
	}
}

// TestMemoBytesExact: the byte budget charges each entry its encoding and
// its statuses, exactly, and a snapshot round trip keeps the sum.
func TestMemoBytesExact(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(0, 0)
	var want int64
	for _, f := range cfggen.Generate(cfggen.DefaultProfile("memobytes", 9))[:12] {
		key, out, inVars, st, statuses := translation(t, f.String(), opt)
		memo.Store(key, out, inVars, st, statuses)
		want += int64(len(ir.AppendBinary(nil, out)) + len(statuses))
	}
	if got := memo.Stats().Bytes; got != want {
		t.Fatalf("Stats().Bytes = %d after storing, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewMemo(0, 0)
	if _, skipped, err := fresh.LoadSnapshot(&buf); err != nil || skipped != 0 {
		t.Fatalf("load: skipped %d, err %v", skipped, err)
	}
	if st := fresh.Stats(); st.Bytes != want || st.Entries != memo.Stats().Entries {
		t.Fatalf("after a snapshot round trip: %+v, want %d bytes", st, want)
	}
}

// TestMemoStoreAllocs: Store takes the same number of allocations at every
// function size, because it encodes the output into one allocation of
// exactly its size.
func TestMemoStoreAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime adds its own allocations")
	}
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	var counts []float64
	for _, stmts := range []int{10, 100, 1000} {
		p := cfggen.DefaultProfile("memostore", 5)
		p.Funcs, p.MinStmts, p.MaxStmts = 1, stmts, stmts
		key, f, inVars, st, statuses := translation(t, cfggen.Generate(p)[0].String(), opt)
		if len(statuses) == 0 {
			t.Fatalf("%d statements: no affinities; the sizes would store different records", stmts)
		}
		memo := NewMemo(0, -1)
		counts = append(counts, testing.AllocsPerRun(20, func() {
			key.FPLo++
			memo.Store(key, f, inVars, st, statuses)
		}))
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Fatalf("Store takes %v allocations at 10, 100 and 1,000 statements, want the same at every size", counts)
	}
}

// TestMemoMaterializePanicsOnBadEncoding: a stored encoding that does not
// decode can only come from a bug, and Materialize panics naming the key.
func TestMemoMaterializePanicsOnBadEncoding(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, memoSrc, opt)
	key := MemoKeyFor(ir.MustParse(memoSrc), opt)
	e := memo.Lookup(key)
	if e == nil {
		t.Fatal("stored entry not found")
	}
	e.out = e.out[:len(e.out)-1]
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), fmt.Sprintf("%+v", key)) {
			t.Fatalf("Materialize of a truncated encoding recovered %v, want a panic naming %+v", r, key)
		}
	}()
	e.Materialize(ir.MustParse(memoSrc), nil)
}
