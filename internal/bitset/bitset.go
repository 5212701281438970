// Package bitset provides the small set representations used throughout the
// out-of-SSA translator: dense bit sets, half-size triangular bit matrices
// (for interference graphs), and sorted "ordered sets" (the liveness-set
// representation benchmarked by the paper). Every container can report its
// memory footprint in bytes so the benchmark harness can reproduce the
// paper's Figure 7 measurements.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over small non-negative integers.
// The zero value is an empty set of capacity 0.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns a set able to hold values in [0, n).
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// NewBatch returns count sets, each able to hold values in [0, n), carved
// out of one shared backing array — two allocations total instead of two
// per set. Every set's word slice has exact capacity, so a Grow beyond n
// moves that set onto private backing and can never touch its neighbours.
func NewBatch(n, count int) []Set {
	wpb := (n + wordBits - 1) / wordBits
	words := make([]uint64, wpb*count)
	sets := make([]Set, count)
	for i := range sets {
		sets[i] = Set{words: words[i*wpb : (i+1)*wpb : (i+1)*wpb], n: n}
	}
	return sets
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Grow extends the capacity to at least n bits, preserving contents.
func (s *Set) Grow(n int) {
	if n <= s.n {
		return
	}
	need := (n + wordBits - 1) / wordBits
	if need > len(s.words) {
		w := make([]uint64, need)
		copy(w, s.words)
		s.words = w
	}
	s.n = n
}

// Add inserts i into the set. Negative values are rejected with a panic:
// silently accepting them would set an unrelated bit (i%64 of word 0), the
// classic ir.NoVar-flows-into-a-set bug.
func (s *Set) Add(i int) {
	if i < 0 {
		panic(fmt.Sprintf("bitset: Add(%d): negative element", i))
	}
	if i >= s.n {
		s.Grow(i + 1)
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i/wordBits >= len(s.words) {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Reset clears the set and sets its capacity to exactly n bits, reusing
// the backing array when it is large enough. Unlike Grow+Clear it also
// shrinks, so a pooled set does not leak a previous, larger capacity into
// sets it is unioned into.
func (s *Set) Reset(n int) {
	need := (n + wordBits - 1) / wordBits
	if need > cap(s.words) {
		s.words = make([]uint64, need)
	} else {
		s.words = s.words[:need]
		for i := range s.words {
			s.words[i] = 0
		}
	}
	s.n = n
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Copy returns an independent copy of s.
func (s *Set) Copy() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// UnionWith adds all elements of t to s and reports whether s changed.
func (s *Set) UnionWith(t *Set) bool {
	s.Grow(t.n)
	changed := false
	for i, w := range t.words {
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// UnionWithAndNot adds every element of t that is not in u to s — the
// dataflow transfer s |= t \ u — one word at a time, and reports whether s
// changed. It is the live-in update in = in ∪ (out \ defs) without per-bit
// callbacks.
func (s *Set) UnionWithAndNot(t, u *Set) bool {
	s.Grow(t.n)
	changed := false
	for i, w := range t.words {
		if i < len(u.words) {
			w &^= u.words[i]
		}
		old := s.words[i]
		nw := old | w
		if nw != old {
			s.words[i] = nw
			changed = true
		}
	}
	return changed
}

// ForEach calls f for each element in increasing order.
func (s *Set) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &^= 1 << uint(b)
		}
	}
}

// Elems returns the elements in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Bytes returns the memory footprint of the payload in bytes.
func (s *Set) Bytes() int { return len(s.words) * 8 }

// String renders the set as "{1, 5, 9}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
