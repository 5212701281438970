package core

import (
	"container/list"
	"fmt"
	"sync"

	"repro/internal/coalesce"
	"repro/internal/faults"
	"repro/internal/ir"
)

// Failpoints. Both degrade gracefully by design: a store fault drops the
// entry (the translation result is still returned), a materialize fault
// turns a hit into a miss (the caller translates from scratch). Chaos runs
// verify that neither corrupts results — the memo is an accelerator, never
// a correctness dependency.
var (
	fpStore       = faults.Register("memo.store")
	fpMaterialize = faults.Register("memo.materialize")
)

// Memo is a concurrency-safe, bounded store of completed translations,
// keyed by the input function's structural fingerprint plus an options
// fingerprint. Each entry holds its translated output as the exact-size
// ir.AppendBinary encoding, a fraction of the memory of the object graph it
// encodes. On a hit the encoding is decoded into the caller's function with
// ir.DecodeBinaryInto, which reuses the function's records and arenas, and
// the caller's variable identities (names, register pins, derivation links)
// are restored over the original universe prefix, so a memoized result is
// bit-identical to a fresh translation of the same input modulo the
// display names of translation-minted blocks.
//
// Determinism across sharers: translation decisions depend only on function
// structure (names never feed them), so two workers that race to translate
// structurally identical inputs store identical entries — Store is
// idempotent on an existing key and the winner is irrelevant.
//
// Eviction is LRU, bounded both by entry count and by a byte budget: the
// encoded bytes of the stored translations, each entry counting its
// encoding and its coalescing statuses.
type Memo struct {
	mu         sync.Mutex
	entries    map[MemoKey]*list.Element
	lru        list.List // front = most recent; values are *memoEnt
	maxEntries int
	maxBytes   int64

	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
}

// MemoKey identifies one translation: the two fingerprint lanes of the
// input plus the packed options word.
type MemoKey struct {
	FPHi, FPLo uint64
	Opt        uint64
}

// MemoKeyFor derives the memo key of translating f under opt.
func MemoKeyFor(f *ir.Func, opt Options) MemoKey {
	fp := f.Fingerprint()
	return MemoKey{FPHi: fp.Hi, FPLo: fp.Lo, Opt: optionsWord(opt)}
}

// optionsWord packs every Options field that can influence the translated
// output or its reported statistics into one word. Persisted memo
// snapshots hold these words, so the packing is frozen
// (TestOptionsWordGolden).
func optionsWord(o Options) uint64 {
	w := uint64(o.Strategy) & 0xf
	set := func(bit uint, v bool) {
		if v {
			w |= 1 << (4 + bit)
		}
	}
	set(0, o.Virtualize)
	set(1, o.UseGraph)
	set(2, o.LiveCheck)
	set(3, o.Linear)
	set(4, o.OrderedSets)
	set(5, o.SplitCriticalEdges)
	set(6, o.KeepParallelCopies)
	return w
}

// MemoEntry is one stored translation. It is immutable after Store;
// concurrent Materialize calls only read it.
type MemoEntry struct {
	key      MemoKey
	out      []byte // ir.AppendBinary encoding of the translated output
	stats    Stats  // value copy; per-phase nanos zeroed
	statuses []coalesce.Status
	inVars   int // size of the input's variable universe at key time
}

// size is the entry's charge against the memo's byte budget.
func (e *MemoEntry) size() int64 { return int64(len(e.out) + len(e.statuses)) }

// Statuses returns the per-affinity coalescing decisions of the stored
// translation (the Figure 5 accounting), for differential comparison
// against an uncached run.
func (e *MemoEntry) Statuses() []coalesce.Status { return e.statuses }

// MemoStats is a point-in-time snapshot of a Memo's counters.
type MemoStats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Bytes                   int64
}

// Memo size defaults, used when a caller passes 0 for a bound.
const (
	DefaultMemoEntries = 4096
	DefaultMemoBytes   = 256 << 20
)

// NewMemo returns a memo bounded to maxEntries entries and maxBytes of
// stored translations, counted as their encoded bytes. Zero selects the
// default for either bound; negative disables that bound.
func NewMemo(maxEntries int, maxBytes int64) *Memo {
	if maxEntries == 0 {
		maxEntries = DefaultMemoEntries
	}
	if maxBytes == 0 {
		maxBytes = DefaultMemoBytes
	}
	return &Memo{
		entries:    map[MemoKey]*list.Element{},
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// Lookup returns the stored entry for key, or nil, counting a hit or miss.
func (m *Memo) Lookup(key MemoKey) *MemoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.entries[key]
	if !ok {
		m.misses++
		return nil
	}
	if err := fpMaterialize.Inject(); err != nil {
		m.misses++
		return nil
	}
	m.hits++
	m.lru.MoveToFront(el)
	return el.Value.(*MemoEntry)
}

// Store records the translated output of the function keyed by key: f must
// be the post-translation state, inVars the input's variable-universe size
// when the key was derived (translation only appends variables), st the
// final statistics and statuses the coalescing decisions. The output is
// encoded into one allocation of exactly its size; f is not retained.
// Storing an existing key refreshes its recency and changes nothing else —
// concurrent duplicate misses store identical entries, so first-wins is
// deterministic.
func (m *Memo) Store(key MemoKey, f *ir.Func, inVars int, st *Stats, statuses []coalesce.Status) {
	if err := fpStore.Inject(); err != nil {
		return // injected store fault: drop the entry, keep the result
	}
	e := &MemoEntry{
		key:      key,
		out:      ir.AppendBinary(nil, f),
		stats:    *st,
		statuses: append([]coalesce.Status(nil), statuses...),
		inVars:   inVars,
	}
	e.stats.InsertNanos, e.stats.AnalyzeNanos = 0, 0
	e.stats.CoalesceNanos, e.stats.RewriteNanos = 0, 0
	m.install(e)
}

// install adds a fully-built entry under the memo's bounds: existing keys
// only get a recency refresh, and the LRU tail is evicted until both
// budgets hold. Shared by Store and the snapshot loader.
func (m *Memo) install(e *MemoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[e.key]; ok {
		m.lru.MoveToFront(el)
		return
	}
	m.entries[e.key] = m.lru.PushFront(e)
	m.bytes += e.size()
	for (m.maxEntries > 0 && m.lru.Len() > m.maxEntries) ||
		(m.maxBytes > 0 && m.bytes > m.maxBytes && m.lru.Len() > 1) {
		back := m.lru.Back()
		victim := back.Value.(*MemoEntry)
		m.lru.Remove(back)
		delete(m.entries, victim.key)
		m.bytes -= victim.size()
		m.evictions++
	}
}

// Materialize overwrites f with the stored translated output, decoding it
// into f's own records and arenas, preserving f's name and the identities
// (name, register pin, derivation base) of the original variable-universe
// prefix, and returns a private copy of the stored statistics (phase nanos
// zero: no phases ran). The identities are snapshotted in sc, so memo hits
// on a batch worker stay allocation-free in steady state; a nil sc draws
// one from the package pool for the call.
//
// The memo only holds encodings it made itself or loaded after a strict
// decode and ir.Verify, so one that fails to decode can only come from a
// bug: Materialize then panics with the entry's key, leaving f unusable.
// The pipeline calls it inside a pass, whose recover turns the panic into
// that function's PassError (runSafe catches one outside any pass too), so
// the rest of a batch is unaffected.
//
// Translation never removes or reorders variables, and renaming picks class
// representatives by ID, so the stored output's structure is exactly what
// translating f would produce; only display names of variables the stored
// input minted during translation (and block names) come from the
// first-stored input. Comparisons (Equivalent, statuses, metrics) are
// name-insensitive.
func (e *MemoEntry) Materialize(f *ir.Func, sc *Scratch) *Stats {
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	vars := ir.Resize(sc.memoVars, e.inVars)
	sc.memoVars = vars
	for i := range vars {
		vars[i] = *f.Vars[i]
	}
	name := f.Name
	if err := ir.DecodeBinaryInto(f, e.out); err != nil {
		panic(fmt.Sprintf("core: memo entry %+v does not decode: %v", e.key, err))
	}
	f.Name = name
	for i := range vars {
		*f.Vars[i] = vars[i]
	}
	st := e.stats
	return &st
}

// Stats snapshots the memo's counters.
func (m *Memo) Stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{
		Hits:      m.hits,
		Misses:    m.misses,
		Evictions: m.evictions,
		Entries:   m.lru.Len(),
		Bytes:     m.bytes,
	}
}
