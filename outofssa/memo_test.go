package outofssa_test

import (
	"context"
	"testing"

	"repro/outofssa"
)

// TestWithMemo: a shared memo attached through the public façade serves
// the second batch over the same corpus entirely from the store, with every
// warm Result flagged MemoHit, the memo's own counters recording the warm
// pass as all hits, and the memoized code behaviourally equivalent to the
// uncached translation.
func TestWithMemo(t *testing.T) {
	p := outofssa.DefaultProfile("memopub", 47)
	p.Funcs = 6
	corpus := outofssa.Generate(p)

	m := outofssa.NewMemo(0, 0)
	tr, err := outofssa.New(outofssa.WithMemo(m))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := outofssa.New()
	if err != nil {
		t.Fatal(err)
	}

	clone := func() []*outofssa.Func {
		out := make([]*outofssa.Func, len(corpus))
		for i, f := range corpus {
			out[i] = outofssa.Clone(f)
		}
		return out
	}

	cold, err := tr.TranslateAll(context.Background(), clone())
	if err != nil {
		t.Fatal(err)
	}
	coldStats := m.Stats()
	warmFns := clone()
	warm, err := tr.TranslateAll(context.Background(), warmFns)
	if err != nil {
		t.Fatal(err)
	}
	warmStats := m.Stats()
	if hits, misses := warmStats.Hits-coldStats.Hits, warmStats.Misses-coldStats.Misses; hits != uint64(len(corpus)) || misses != 0 {
		t.Fatalf("warm run counted hits=%d misses=%d, want %d and 0", hits, misses, len(corpus))
	}
	refFns := clone()
	ref, err := plain.TranslateAll(context.Background(), refFns)
	if err != nil {
		t.Fatal(err)
	}

	if cold.Stats != warm.Stats || warm.Stats != ref.Stats {
		t.Fatalf("aggregate stats diverge:\ncold %+v\nwarm %+v\nref  %+v",
			cold.Stats, warm.Stats, ref.Stats)
	}
	for i, r := range warm.Results {
		if !r.MemoHit {
			t.Fatalf("%s: warm run missed the memo", corpus[i].Name)
		}
		for _, params := range [][]int64{{0, 0}, {2, 9}} {
			a, errA := outofssa.Interpret(warmFns[i], params, 1<<20)
			b, errB := outofssa.Interpret(refFns[i], params, 1<<20)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: interpretation errors diverge: %v vs %v", corpus[i].Name, errA, errB)
			}
			if errA == nil && !outofssa.Equivalent(a, b) {
				t.Fatalf("%s: memoized translation behaves differently on %v", corpus[i].Name, params)
			}
		}
	}

	ms := m.Stats()
	if ms.Hits != uint64(len(corpus)) || ms.Misses != uint64(len(corpus)) {
		t.Fatalf("memo counters: %+v, want %d hits and %d misses", ms, len(corpus), len(corpus))
	}
	if ms.Entries == 0 || ms.Bytes <= 0 {
		t.Fatalf("memo retained nothing: %+v", ms)
	}
}

// TestWithMemoValidation: only NewMemo-built memos are accepted; nil
// detaches without error.
func TestWithMemoValidation(t *testing.T) {
	if _, err := outofssa.New(outofssa.WithMemo(&outofssa.Memo{})); err == nil {
		t.Fatal("WithMemo accepted a zero-value Memo")
	}
	if _, err := outofssa.New(outofssa.WithMemo(nil)); err != nil {
		t.Fatalf("WithMemo(nil) must detach, got %v", err)
	}
}
