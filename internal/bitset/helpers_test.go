package bitset

// Queries that only the tests ask: no binary links them, so they live here
// rather than in the package.

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	long, short := s.words, t.words
	if len(long) < len(short) {
		long, short = short, long
	}
	for i := range short {
		if long[i] != short[i] {
			return false
		}
	}
	for i := len(short); i < len(long); i++ {
		if long[i] != 0 {
			return false
		}
	}
	return true
}

// Clear removes the relation between i and j.
func (m *Matrix) Clear(i, j int) {
	if i < 0 || j < 0 || i >= m.n || j >= m.n {
		return
	}
	k := triIndex(i, j)
	m.bits[k/wordBits] &^= 1 << (uint(k) % wordBits)
}

// Bytes returns the current payload size in bytes.
func (m *Matrix) Bytes() int { return len(m.bits) * 8 }

// Elems returns a copy of the elements in increasing order.
func (o *Ordered) Elems() []int {
	out := make([]int, len(o.elems))
	for i, v := range o.elems {
		out[i] = int(v)
	}
	return out
}
