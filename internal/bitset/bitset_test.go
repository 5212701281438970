package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasic(t *testing.T) {
	s := New(100)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set must be empty")
	}
	s.Add(3)
	s.Add(64)
	s.Add(99)
	if s.Count() != 3 || !s.Has(3) || !s.Has(64) || !s.Has(99) || s.Has(4) {
		t.Fatalf("unexpected contents: %v", s)
	}
	s.Remove(64)
	if s.Has(64) || s.Count() != 2 {
		t.Fatal("remove failed")
	}
	if got := s.String(); got != "{3, 99}" {
		t.Fatalf("String() = %q", got)
	}
}

func TestSetGrowOnAdd(t *testing.T) {
	s := New(1)
	s.Add(500)
	if !s.Has(500) || s.Len() < 501 {
		t.Fatal("Add must grow the set")
	}
	if s.Has(1000) {
		t.Fatal("out-of-range Has must be false")
	}
}

// TestSetAgainstMapModel drives a Set and a map[int]bool with the same
// random operations and compares observations.
func TestSetAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(64)
	m := map[int]bool{}
	for i := 0; i < 20000; i++ {
		v := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			s.Add(v)
			m[v] = true
		case 1:
			s.Remove(v)
			delete(m, v)
		case 2:
			if s.Has(v) != m[v] {
				t.Fatalf("step %d: Has(%d) = %v, model %v", i, v, s.Has(v), m[v])
			}
		}
	}
	if s.Count() != len(m) {
		t.Fatalf("Count = %d, model %d", s.Count(), len(m))
	}
	n := 0
	s.ForEach(func(v int) {
		if !m[v] {
			t.Fatalf("ForEach yielded %d not in model", v)
		}
		n++
	})
	if n != len(m) {
		t.Fatalf("ForEach yielded %d values, model has %d", n, len(m))
	}
}

func fromInts(vals []uint16) *Set {
	s := New(0)
	for _, v := range vals {
		s.Add(int(v) % 500)
	}
	return s
}

func TestAddNegativePanics(t *testing.T) {
	s := New(64)
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) must panic, not silently set bit 63 of word 0")
		}
		if s.Has(63) {
			t.Fatal("Add(-1) corrupted the set before panicking")
		}
	}()
	s.Add(-1)
}

func TestUnionWithAndNot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		s, tt, u := New(130), New(130), New(130)
		model := map[int]bool{}
		for i := 0; i < 40; i++ {
			v := rng.Intn(130)
			switch rng.Intn(3) {
			case 0:
				s.Add(v)
				model[v] = true
			case 1:
				tt.Add(v)
			default:
				u.Add(v)
			}
		}
		before := map[int]bool{}
		for k, v := range model {
			before[k] = v
		}
		tt.ForEach(func(v int) {
			if !u.Has(v) {
				model[v] = true
			}
		})
		changed := s.UnionWithAndNot(tt, u)
		wantChanged := len(model) != len(before)
		if changed != wantChanged {
			t.Fatalf("trial %d: changed = %v, want %v", trial, changed, wantChanged)
		}
		for v := 0; v < 130; v++ {
			if s.Has(v) != model[v] {
				t.Fatalf("trial %d: element %d: got %v want %v", trial, v, s.Has(v), model[v])
			}
		}
	}
}

func TestResetShrinksCapacity(t *testing.T) {
	s := New(1000)
	s.Add(900)
	s.Reset(100)
	if !s.Empty() || s.Len() != 100 {
		t.Fatalf("Reset: len=%d empty=%v", s.Len(), s.Empty())
	}
	if s.Bytes() != 2*8 {
		t.Fatalf("Reset must shrink the payload view: %d bytes", s.Bytes())
	}
	// A set unioned with a reset scratch must not inherit the old capacity.
	d := New(100)
	d.UnionWith(s)
	if d.Bytes() != 2*8 {
		t.Fatalf("union with reset scratch leaked capacity: %d bytes", d.Bytes())
	}
	s.Reset(2000)
	if s.Len() != 2000 || !s.Empty() {
		t.Fatal("Reset must also grow")
	}
}

func TestSetAlgebraProperties(t *testing.T) {
	// Union is commutative on membership.
	f := func(a, b []uint16) bool {
		sa, sb := fromInts(a), fromInts(b)
		u1 := sa.Copy()
		u1.UnionWith(sb)
		u2 := sb.Copy()
		u2.UnionWith(sa)
		return u1.Equal(u2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSetEqualDifferentCapacities(t *testing.T) {
	a, b := New(10), New(1000)
	a.Add(5)
	b.Add(5)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("equality must ignore capacity")
	}
	b.Add(700)
	if a.Equal(b) {
		t.Fatal("sets differ")
	}
}

func TestMatrixSymmetricRelation(t *testing.T) {
	m := NewMatrix(10)
	m.Set(2, 7)
	if !m.Has(7, 2) || !m.Has(2, 7) {
		t.Fatal("matrix must be symmetric")
	}
	if m.Has(2, 6) || m.Has(0, 0) == true && false {
		t.Fatal("unrelated pair reported")
	}
	m.Set(9, 9)
	if !m.Has(9, 9) {
		t.Fatal("diagonal must work")
	}
	m.Clear(2, 7)
	if m.Has(2, 7) {
		t.Fatal("Clear failed")
	}
}

func TestMatrixGrowPreservesAndCounts(t *testing.T) {
	m := NewMatrix(4)
	m.Set(1, 3)
	before := m.AllocatedBytes()
	m.Set(100, 2) // implies growth
	if !m.Has(1, 3) || !m.Has(2, 100) {
		t.Fatal("growth lost bits")
	}
	if m.AllocatedBytes() <= before {
		t.Fatal("growth must add to cumulative allocation")
	}
	if m.Bytes() > m.AllocatedBytes() {
		t.Fatal("current bytes cannot exceed cumulative")
	}
}

func TestMatrixAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMatrix(1)
	model := map[[2]int]bool{}
	key := func(i, j int) [2]int {
		if i < j {
			i, j = j, i
		}
		return [2]int{i, j}
	}
	for step := 0; step < 5000; step++ {
		i, j := rng.Intn(80), rng.Intn(80)
		switch rng.Intn(3) {
		case 0:
			m.Set(i, j)
			model[key(i, j)] = true
		case 1:
			m.Clear(i, j)
			delete(model, key(i, j))
		default:
			if m.Has(i, j) != model[key(i, j)] {
				t.Fatalf("step %d: Has(%d,%d) mismatch", step, i, j)
			}
		}
	}
}

func TestEvaluatedBytesFormula(t *testing.T) {
	// ceil(n/8) * n / 2, straight from the paper.
	cases := map[int]int{0: 0, 1: 0, 8: 4, 16: 16, 100: 650}
	for n, want := range cases {
		if got := EvaluatedBytes(n); got != want {
			t.Errorf("EvaluatedBytes(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOrderedBasic(t *testing.T) {
	o := &Ordered{}
	for _, v := range []int{5, 1, 9, 5, 3} {
		o.Add(v)
	}
	if o.Len() != 4 {
		t.Fatalf("Len = %d", o.Len())
	}
	want := []int{1, 3, 5, 9}
	got := o.Elems()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v", got)
		}
	}
	if !o.Remove(5) || o.Remove(5) || o.Has(5) {
		t.Fatal("Remove misbehaved")
	}
	if o.Bytes() != 4*3 {
		t.Fatalf("Bytes = %d", o.Bytes())
	}
}

func TestOrderedMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o := &Ordered{}
	s := New(0)
	for i := 0; i < 5000; i++ {
		v := rng.Intn(200)
		switch rng.Intn(3) {
		case 0:
			o.Add(v)
			s.Add(v)
		case 1:
			o.Remove(v)
			s.Remove(v)
		default:
			if o.Has(v) != s.Has(v) {
				t.Fatalf("step %d: divergence on %d", i, v)
			}
		}
	}
	if o.Len() != s.Count() {
		t.Fatal("size divergence")
	}
	i := 0
	elems := s.Elems()
	o.ForEach(func(v int) {
		if elems[i] != v {
			t.Fatalf("order divergence at %d", i)
		}
		i++
	})
}

func TestOrderedUnionWith(t *testing.T) {
	a, b := &Ordered{}, &Ordered{}
	a.Add(1)
	a.Add(5)
	b.Add(5)
	b.Add(9)
	if !a.UnionWith(b) {
		t.Fatal("union should change a")
	}
	if a.Len() != 3 || !a.Has(9) {
		t.Fatal("union wrong")
	}
	if a.UnionWith(b) {
		t.Fatal("second union should be a no-op")
	}
}

// TestOrderedMergeOpsMatchModel drives the merge-based unions (UnionWith,
// UnionSorted, UnionWithAndNot) against a per-element model.
func TestOrderedMergeOpsMatchModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		o := &Ordered{}
		src := &Ordered{}
		excl := New(150)
		model := map[int]bool{}
		for i := 0; i < 30; i++ {
			v := rng.Intn(150)
			switch rng.Intn(3) {
			case 0:
				o.Add(v)
				model[v] = true
			case 1:
				src.Add(v)
			default:
				excl.Add(v)
			}
		}
		sizeBefore := o.Len()
		var changed bool
		switch trial % 3 {
		case 0:
			changed = o.UnionWith(src)
			src.ForEach(func(v int) { model[v] = true })
		case 1:
			var sorted []int32
			src.ForEach(func(v int) { sorted = append(sorted, int32(v)) })
			changed = o.UnionSorted(sorted)
			src.ForEach(func(v int) { model[v] = true })
		default:
			changed = o.UnionWithAndNot(src, excl)
			src.ForEach(func(v int) {
				if !excl.Has(v) {
					model[v] = true
				}
			})
		}
		if changed != (o.Len() != sizeBefore) {
			t.Fatalf("trial %d: changed = %v but size %d -> %d", trial, changed, sizeBefore, o.Len())
		}
		if o.Len() != len(model) {
			t.Fatalf("trial %d: len %d, model %d", trial, o.Len(), len(model))
		}
		prev := -1
		bad := false
		o.ForEach(func(v int) {
			if !model[v] || v <= prev {
				bad = true
			}
			prev = v
		})
		if bad {
			t.Fatalf("trial %d: elements unsorted or out of model: %v", trial, o.Elems())
		}
	}
}
