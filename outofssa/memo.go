package outofssa

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// Memo is a shared, concurrency-safe store of completed translations,
// keyed by the input function's structural fingerprint (blocks, edges,
// instructions, operands, frequencies, register pins — never names) plus
// the translator's machinery configuration. Attach one to a Translator
// with WithMemo: structurally identical functions then translate once, and
// every later occurrence — in the same batch, across batches, or across
// daemon requests — decodes the stored output into its own function, in a
// fixed handful of allocations, instead of re-running the pipeline. Each
// translation is stored as its compact binary encoding, the form Snapshot
// writes, not as a copy of the function.
//
// One Memo may back any number of Translators and is safe for concurrent
// use; entries are only shared between translators with an identical
// machinery configuration (the options are part of the key). Results are
// bit-identical to uncached translation up to the display names of
// translation-minted variables and blocks; statistics, coalescing
// decisions, and observable behaviour are identical — the differential
// tests in this package prove it.
type Memo struct {
	m *core.Memo
}

// MemoStats is a point-in-time snapshot of a Memo's counters.
type MemoStats struct {
	// Hits and Misses count lookups that did / did not find a stored
	// translation.
	Hits, Misses uint64
	// Evictions counts entries dropped by the LRU bounds.
	Evictions uint64
	// Entries and Bytes describe the current retained contents; Bytes
	// counts the encoded bytes of the stored translations.
	Entries int
	Bytes   int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before the first lookup.
func (s MemoStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewMemo returns a translation memo bounded to maxEntries stored
// translations and maxBytes, counted as the encoded bytes of the stored
// translations. Zero selects the defaults (4096 entries, 256 MiB); a
// negative value disables that bound. Eviction is least-recently-used.
func NewMemo(maxEntries int, maxBytes int64) *Memo {
	return &Memo{m: core.NewMemo(maxEntries, maxBytes)}
}

// Stats snapshots the memo's counters.
func (m *Memo) Stats() MemoStats {
	st := m.m.Stats()
	return MemoStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Bytes,
	}
}

// Snapshot serializes the memo's contents to w as a versioned binary
// stream of checksummed records, oldest entry first, for reloading with
// Load after a restart. Lookups and stores proceed while it writes; entries
// stored after it starts may be left out.
func (m *Memo) Snapshot(w io.Writer) error { return m.m.Snapshot(w) }

// Load reads a Snapshot stream into the memo, returning how many entries
// were installed and how many damaged records (torn tail, checksum
// mismatch, entry that fails verification) were skipped. A missing or
// incompatible header is an error, and so is a read error, which can come
// after some entries were installed. Loaded entries respect the memo's
// bounds.
func (m *Memo) Load(r io.Reader) (loaded, skipped int, err error) {
	return m.m.LoadSnapshot(r)
}

// WithMemo attaches a shared translation memo to the Translator: inputs
// whose structural fingerprint (and machinery configuration) match a
// stored translation are served from the memo instead of re-translated,
// and fresh translations are stored. The same Memo may be shared by many
// Translators and used from many goroutines; nil detaches. See Memo for
// the exact result guarantees.
func WithMemo(m *Memo) Option {
	return func(t *Translator) error {
		if m == nil {
			t.memo = nil
			return nil
		}
		if m.m == nil {
			return fmt.Errorf("outofssa: WithMemo needs a Memo built by NewMemo")
		}
		t.memo = m.m
		return nil
	}
}
