package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"os"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cfggen"
	"repro/internal/coalesce"
	"repro/internal/faults"
	"repro/internal/ir"
)

var update = flag.Bool("update", false, "rewrite the golden snapshot in testdata/")

// translation runs the full translation of src under opt and returns the
// translated function with the rest of what Memo.Store takes.
func translation(t testing.TB, src string, opt Options) (key MemoKey, f *ir.Func, inVars int, st *Stats, statuses []coalesce.Status) {
	t.Helper()
	f = ir.MustParse(src)
	key = MemoKeyFor(f, opt)
	inVars = len(f.Vars)
	tr, err := NewTranslation(f, opt, analysis.NewCache(f))
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []func() error{tr.Insert, tr.Analyze, tr.Coalesce, tr.Rewrite} {
		if err := phase(); err != nil {
			t.Fatal(err)
		}
	}
	return key, f, inVars, tr.Stats, tr.CoalesceResult().Statuses
}

// translateInto runs the full translation of src under opt, storing into
// memo, and returns the translated function.
func translateInto(t testing.TB, memo *Memo, src string, opt Options) *ir.Func {
	t.Helper()
	key, f, inVars, st, statuses := translation(t, src, opt)
	memo.Store(key, f, inVars, st, statuses)
	return f
}

// persistSrc2 differs structurally (extra print), not just by name: memo
// keys are structural fingerprints, so a rename alone would collide.
var persistSrc2 = strings.Replace(strings.Replace(persistSrc,
	"func loop", "func loop2", 1), "print i", "print n\n  print i", 1)

const persistSrc = `
func loop {
entry:
  n = param 0
  i0 = const 0
  jump head
head:
  i = phi entry:i0 body:i2
  c = cmplt i n
  br c body exit
body:
  one = const 1
  i2 = add i one
  jump head
exit:
  print i
  ret i
}
`

func TestMemoSnapshotRoundTrip(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	src := ir.MustParse(persistSrc)

	memo := NewMemo(16, 0)
	want := translateInto(t, memo, persistSrc, opt)

	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	fresh := NewMemo(16, 0)
	loaded, skipped, err := fresh.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || skipped != 0 {
		t.Fatalf("loaded %d skipped %d, want 1/0", loaded, skipped)
	}
	if st := fresh.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats after load: %+v", st)
	}

	// The reloaded entry must materialize into a fresh parse of the same
	// input exactly as the original entry would.
	key := MemoKeyFor(src, opt)
	e := fresh.Lookup(key)
	if e == nil {
		t.Fatal("reloaded memo missed on the original key")
	}
	g := ir.MustParse(persistSrc)
	st := e.Materialize(g, nil)
	if st.RemainingCopies != 0 && st.Blocks == 0 {
		t.Fatalf("materialized stats look empty: %+v", st)
	}
	if g.String() != want.String() {
		t.Fatalf("materialized output differs:\n--- got\n%s\n--- want\n%s", g, want)
	}
	if len(e.Statuses()) == 0 {
		t.Fatal("statuses lost in round trip")
	}
}

func TestMemoSnapshotRecencyOrder(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	translateInto(t, memo, persistSrc2, opt)

	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Reload into a memo that only holds one entry: the newest must win.
	small := NewMemo(1, 0)
	loaded, _, err := small.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 {
		t.Fatalf("loaded %d, want 2", loaded)
	}
	st := small.Stats()
	if st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("bounded load stats: %+v", st)
	}
	f2 := ir.MustParse(persistSrc2)
	if small.Lookup(MemoKeyFor(f2, opt)) == nil {
		t.Fatal("newest entry was evicted instead of the oldest")
	}
}

func TestMemoLoadToleratesTornTail(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	translateInto(t, memo, persistSrc2, opt)

	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Tear the final line in half, as a crash mid-write would.
	torn := data[:len(data)-40]

	fresh := NewMemo(16, 0)
	loaded, skipped, err := fresh.LoadSnapshot(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || skipped != 1 {
		t.Fatalf("loaded %d skipped %d, want 1/1", loaded, skipped)
	}

	// A record with a flipped byte fails its checksum and is skipped, not
	// fatal; loading goes on past it.
	bounds := recordBounds(t, memo)
	for i := 1; i < len(bounds); i++ {
		corrupt := bytes.Clone(data)
		corrupt[(bounds[i-1]+bounds[i])/2] ^= 0x40
		fresh2 := NewMemo(16, 0)
		loaded, skipped, err = fresh2.LoadSnapshot(bytes.NewReader(corrupt))
		if err != nil {
			t.Fatal(err)
		}
		if loaded != 1 || skipped != 1 {
			t.Fatalf("corrupt record %d: loaded %d skipped %d, want 1/1", i, loaded, skipped)
		}
	}
}

// recordBounds returns the offsets at which memo's snapshot records start,
// plus the snapshot's length: the snapshot of each oldest-first prefix of
// its entries ends where the next record starts.
func recordBounds(t *testing.T, memo *Memo) []int {
	t.Helper()
	memo.mu.Lock()
	var entries []*MemoEntry
	for el := memo.lru.Back(); el != nil; el = el.Prev() {
		entries = append(entries, el.Value.(*MemoEntry))
	}
	memo.mu.Unlock()
	var bounds []int
	for n := 0; n <= len(entries); n++ {
		prefix := NewMemo(16, 0)
		for _, e := range entries[:n] {
			prefix.install(e)
		}
		var buf bytes.Buffer
		if err := prefix.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		bounds = append(bounds, buf.Len())
	}
	return bounds
}

func TestMemoLoadRejectsBadHeader(t *testing.T) {
	memo := NewMemo(16, 0)
	for _, in := range []string{
		"",
		"not json\n",
		`{"format":"ssad-memo","version":99}` + "\n",
		`{"format":"other","version":1}` + "\n",
		`{"format":"ssad-memo","version":1,"entries":2}` + "\n",
		memoMagic + "\x01",
		memoMagic + "\x03",
	} {
		if _, _, err := memo.LoadSnapshot(strings.NewReader(in)); err == nil {
			t.Errorf("LoadSnapshot(%q) succeeded, want header error", in)
		}
	}
}

func TestMemoStoreFailpointDropsEntry(t *testing.T) {
	defer faults.Disable()
	if err := faults.Enable("memo.store=err", 1); err != nil {
		t.Fatal(err)
	}
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	if st := memo.Stats(); st.Entries != 0 {
		t.Fatalf("store fault did not drop the entry: %+v", st)
	}
}

func TestMemoMaterializeFailpointActsAsMiss(t *testing.T) {
	defer faults.Disable()
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	key := MemoKeyFor(ir.MustParse(persistSrc), opt)
	if memo.Lookup(key) == nil {
		t.Fatal("expected a hit before arming the failpoint")
	}
	if err := faults.Enable("memo.materialize=err", 1); err != nil {
		t.Fatal(err)
	}
	if memo.Lookup(key) != nil {
		t.Fatal("materialize fault did not force a miss")
	}
	faults.Disable()
	st := memo.Stats()
	if st.Misses < 1 || st.Hits < 1 {
		t.Fatalf("miss/hit accounting wrong: %+v", st)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestMemoSnapshotUnlockedWhileWriting writes the snapshot into a writer
// that blocks until a concurrent Lookup returns: Snapshot must not hold the
// memo lock while it writes.
func TestMemoSnapshotUnlockedWhileWriting(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	key := MemoKeyFor(ir.MustParse(persistSrc), opt)

	var once sync.Once
	looked := make(chan struct{})
	w := writerFunc(func(p []byte) (int, error) {
		once.Do(func() {
			go func() {
				memo.Lookup(key)
				close(looked)
			}()
		})
		select {
		case <-looked:
			return len(p), nil
		case <-time.After(5 * time.Second):
			return 0, errors.New("a concurrent Lookup stayed blocked while Snapshot wrote")
		}
	})
	err := memo.Snapshot(w)
	<-looked
	if err != nil {
		t.Fatal(err)
	}
}

// goldenEntries are the fixed contents of testdata/memo-v2.snap: parsed,
// untranslated functions under literal keys, statistics and statuses, so
// that no change to the translator or the fingerprint touches the fixture.
var goldenEntries = []struct {
	key      MemoKey
	src      string
	stats    Stats
	statuses []coalesce.Status
}{
	{
		key: MemoKey{FPHi: 0x0123456789abcdef, FPLo: 0xfedcba9876543210, Opt: 0x2c6},
		src: persistSrc,
		stats: Stats{
			Blocks: 4, Vars: 7, Phis: 1, Affinities: 2, RemainingCopies: 1,
			RemainingWeight: 2.5, SharedRemoved: 1, FinalCopies: 3, CycleCopies: 1,
			SplitEdges: 1, CleanedBlocks: 1, IntersectionTests: 300, MaterializedVars: 2,
			GraphBytes: 1 << 20, GraphEval: 96, LiveSetBytes: 4096, LiveSetEval: 800,
			LiveSetBitEval: 512, LiveCheckBytes: 70000, LiveCheckEval: 123456,
		},
		statuses: []coalesce.Status{coalesce.Coalesced, coalesce.Remaining, coalesce.SharedRemoved},
	},
	{
		key:   MemoKey{FPHi: 1, FPLo: 2, Opt: 3},
		src:   persistSrc2,
		stats: Stats{Blocks: 4, Vars: 7, Phis: 1, RemainingWeight: 0.125},
	},
}

// TestMemoSnapshotGolden pins the version-2 format: loading the committed
// fixture installs its entries, and snapshotting the same memo reproduces
// it byte for byte. An encoding change that does not bump the version
// fails here; regenerate the fixture with -update only alongside a bump.
func TestMemoSnapshotGolden(t *testing.T) {
	const path = "testdata/memo-v2.snap"
	memo := NewMemo(16, 0)
	for _, g := range goldenEntries {
		f := ir.MustParse(g.src)
		st := g.stats
		memo.Store(g.key, f, len(f.Vars), &st, g.statuses)
	}
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("Snapshot no longer reproduces %s (%d bytes, want %d): bump memoVersion and regenerate with -update", path, buf.Len(), len(golden))
	}

	fresh := NewMemo(16, 0)
	loaded, skipped, err := fresh.LoadSnapshot(bytes.NewReader(golden))
	if err != nil || loaded != 2 || skipped != 0 {
		t.Fatalf("loading %s: loaded %d skipped %d err %v, want 2/0", path, loaded, skipped, err)
	}
	for _, g := range goldenEntries {
		e := fresh.Lookup(g.key)
		if e == nil {
			t.Fatalf("entry %#x missing after load", g.key.FPHi)
		}
		want := ir.MustParse(g.src)
		out, err := ir.DecodeBinary(e.out)
		if err != nil {
			t.Fatalf("entry %#x: %v", g.key.FPHi, err)
		}
		if out.String() != want.String() || out.Name != want.Name || e.inVars != len(want.Vars) {
			t.Errorf("entry %#x: function or in_vars differ:\n--- got (in_vars %d)\n%s--- want (in_vars %d)\n%s",
				g.key.FPHi, e.inVars, out, len(want.Vars), want)
		}
		for i, v := range want.Vars {
			if got := out.Vars[i]; got.Name != v.Name || got.Reg != v.Reg {
				t.Errorf("entry %#x var %d: %+v, want %+v", g.key.FPHi, i, *got, *v)
			}
		}
		if e.stats != g.stats {
			t.Errorf("entry %#x stats:\n got %+v\nwant %+v", g.key.FPHi, e.stats, g.stats)
		}
		if !slices.Equal(e.Statuses(), g.statuses) {
			t.Errorf("entry %#x statuses %v, want %v", g.key.FPHi, e.Statuses(), g.statuses)
		}
	}
}

// TestMemoSnapshotKeepsEveryStatsField gives every Stats field a distinct
// non-zero value and reloads it: a field added to Stats without a codec
// update comes back zero and fails here.
func TestMemoSnapshotKeepsEveryStatsField(t *testing.T) {
	phaseNanos := map[string]bool{"InsertNanos": true, "AnalyzeNanos": true, "CoalesceNanos": true, "RewriteNanos": true}
	var st Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch fv := v.Field(i); fv.Kind() {
		case reflect.Int, reflect.Int64:
			fv.SetInt(int64(i+1) * 1_000_003)
		case reflect.Float64:
			fv.SetFloat(float64(i+1) + 0.375)
		default:
			t.Fatalf("Stats.%s has kind %s; teach this test and the snapshot codec about it", v.Type().Field(i).Name, fv.Kind())
		}
	}
	memo := NewMemo(16, 0)
	f := ir.MustParse(persistSrc)
	key := MemoKey{FPHi: 7}
	memo.Store(key, f, len(f.Vars), &st, nil)
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	fresh := NewMemo(16, 0)
	if loaded, _, err := fresh.LoadSnapshot(&buf); err != nil || loaded != 1 {
		t.Fatalf("loaded %d, err %v", loaded, err)
	}
	got := reflect.ValueOf(fresh.Lookup(key).stats)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if phaseNanos[name] {
			if !got.Field(i).IsZero() {
				t.Errorf("Stats.%s = %v after reload, want zero", name, got.Field(i))
			}
			continue
		}
		if !got.Field(i).Equal(v.Field(i)) {
			t.Errorf("Stats.%s = %v after reload, want %v", name, got.Field(i), v.Field(i))
		}
	}
}

// TestMemoLoadSkipsEveryFlippedByte flips each byte of each record after
// its length, one at a time. Many such flips still decode into a
// well-formed entry (a name, a statistic, a key); the checksum must catch
// every one, skipping exactly the damaged record.
func TestMemoLoadSkipsEveryFlippedByte(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	translateInto(t, memo, persistSrc2, opt)
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bounds := recordBounds(t, memo)
	for r := 1; r < len(bounds); r++ {
		_, k := binary.Uvarint(data[bounds[r-1]:])
		for at := bounds[r-1] + k; at < bounds[r]; at++ {
			corrupt := bytes.Clone(data)
			corrupt[at] ^= 0x01
			loaded, skipped, err := NewMemo(16, 0).LoadSnapshot(bytes.NewReader(corrupt))
			if err != nil || loaded != 1 || skipped != 1 {
				t.Fatalf("flip at %d in record %d: loaded %d skipped %d err %v, want 1/1", at, r, loaded, skipped, err)
			}
		}
	}
}

// TestMemoLoadEveryTruncation cuts a two-entry snapshot at every byte after
// the header: the load never fails, installs exactly the complete records,
// and counts one skip exactly when the cut falls inside a record.
func TestMemoLoadEveryTruncation(t *testing.T) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	memo := NewMemo(16, 0)
	translateInto(t, memo, persistSrc, opt)
	translateInto(t, memo, persistSrc2, opt)
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	bounds := recordBounds(t, memo)
	for cut := bounds[0]; cut <= len(data); cut++ {
		wantLoaded, wantSkipped := 0, 1
		for i, b := range bounds {
			if b <= cut {
				wantLoaded = i
			}
			if b == cut {
				wantSkipped = 0
			}
		}
		loaded, skipped, err := NewMemo(16, 0).LoadSnapshot(bytes.NewReader(data[:cut]))
		if err != nil || loaded != wantLoaded || skipped != wantSkipped {
			t.Fatalf("cut at %d of %d: loaded %d skipped %d err %v, want %d/%d",
				cut, len(data), loaded, skipped, err, wantLoaded, wantSkipped)
		}
	}
}

// BenchmarkMemoLoad reloads a 1000-entry snapshot of DefaultProfile
// translations into a fresh memo per iteration, as ssad -memo-file does at
// boot.
func BenchmarkMemoLoad(b *testing.B) {
	opt := Options{Strategy: Sharing, Linear: true, LiveCheck: true}
	prof := cfggen.DefaultProfile("memoload", 1)
	prof.Funcs = 1000
	memo := NewMemo(prof.Funcs, 0)
	for _, f := range cfggen.Generate(prof) {
		translateInto(b, memo, f.String(), opt)
	}
	var buf bytes.Buffer
	if err := memo.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for b.Loop() {
		loaded, skipped, err := NewMemo(prof.Funcs, 0).LoadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil || skipped != 0 || loaded != memo.Stats().Entries {
			b.Fatalf("loaded %d skipped %d err %v", loaded, skipped, err)
		}
	}
}
