package bitset

import "sort"

// Ordered is a sorted slice of distinct ints: the "ordered set"
// representation the paper uses for liveness sets in the memory-footprint
// comparison of Figure 7.
type Ordered struct {
	elems []int32
}

// NewOrdered returns an empty ordered set with the given capacity hint.
func NewOrdered(capHint int) *Ordered {
	return &Ordered{elems: make([]int32, 0, capHint)}
}

// Len returns the number of elements.
func (o *Ordered) Len() int { return len(o.elems) }

// Has reports whether v is in the set.
func (o *Ordered) Has(v int) bool {
	i := sort.Search(len(o.elems), func(i int) bool { return o.elems[i] >= int32(v) })
	return i < len(o.elems) && o.elems[i] == int32(v)
}

// Add inserts v, keeping the slice sorted. Reports whether the set changed.
func (o *Ordered) Add(v int) bool {
	i := sort.Search(len(o.elems), func(i int) bool { return o.elems[i] >= int32(v) })
	if i < len(o.elems) && o.elems[i] == int32(v) {
		return false
	}
	o.elems = append(o.elems, 0)
	copy(o.elems[i+1:], o.elems[i:])
	o.elems[i] = int32(v)
	return true
}

// Remove deletes v if present. Reports whether the set changed.
func (o *Ordered) Remove(v int) bool {
	i := sort.Search(len(o.elems), func(i int) bool { return o.elems[i] >= int32(v) })
	if i >= len(o.elems) || o.elems[i] != int32(v) {
		return false
	}
	o.elems = append(o.elems[:i], o.elems[i+1:]...)
	return true
}

// UnionWith adds all elements of t with a linear two-pointer merge;
// reports whether the set changed. (Still an ordered-set algorithm — the
// paper's representation — just not a quadratic one.)
func (o *Ordered) UnionWith(t *Ordered) bool {
	return o.unionSorted(t.elems, nil)
}

// UnionSorted adds the elements of the sorted, duplicate-free slice elems;
// reports whether the set changed. The slice is not retained.
func (o *Ordered) UnionSorted(elems []int32) bool {
	return o.unionSorted(elems, nil)
}

// UnionWithAndNot adds every element of t that is not in excl — the
// dataflow transfer o |= t \ excl — and reports whether o changed.
func (o *Ordered) UnionWithAndNot(t *Ordered, excl *Set) bool {
	return o.unionSorted(t.elems, excl)
}

// unionSorted merges the sorted slice src into o, skipping elements present
// in excl (which may be nil). A first two-pointer scan counts the missing
// elements so the no-change case allocates nothing.
func (o *Ordered) unionSorted(src []int32, excl *Set) bool {
	missing := 0
	i := 0
	for _, v := range src {
		if excl != nil && excl.Has(int(v)) {
			continue
		}
		for i < len(o.elems) && o.elems[i] < v {
			i++
		}
		if i >= len(o.elems) || o.elems[i] != v {
			missing++
		}
	}
	if missing == 0 {
		return false
	}
	merged := make([]int32, 0, len(o.elems)+missing)
	i = 0
	for _, v := range src {
		if excl != nil && excl.Has(int(v)) {
			continue
		}
		for i < len(o.elems) && o.elems[i] < v {
			merged = append(merged, o.elems[i])
			i++
		}
		if i < len(o.elems) && o.elems[i] == v {
			continue // appended on a later iteration of the outer loop
		}
		merged = append(merged, v)
	}
	merged = append(merged, o.elems[i:]...)
	o.elems = merged
	return true
}

// ForEach calls f for each element in increasing order.
func (o *Ordered) ForEach(f func(int)) {
	for _, v := range o.elems {
		f(int(v))
	}
}

// Elems returns a copy of the elements in increasing order.
func (o *Ordered) Elems() []int {
	out := make([]int, len(o.elems))
	for i, v := range o.elems {
		out[i] = int(v)
	}
	return out
}

// Bytes returns the payload footprint: 4 bytes per stored element
// (the paper's "evaluated (ordered sets)" counts the size of each set).
func (o *Ordered) Bytes() int { return 4 * len(o.elems) }

// CapBytes returns the allocated footprint including slack capacity.
func (o *Ordered) CapBytes() int { return 4 * cap(o.elems) }
