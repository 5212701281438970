package core

import (
	"testing"

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
	st, err := Translate(f, opt)
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
	got, _ := e.Materialize(target, nil)
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
