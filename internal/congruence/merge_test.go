package congruence_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/congruence"
	"repro/internal/ir"
)

// permutedChain returns a one-block function defining n variables whose
// definition order is a random permutation of their IDs, so pre-DFS order
// and ID order disagree.
func permutedChain(rng *rand.Rand, n int) *ir.Func {
	bd := ir.NewBuilder("perm")
	f := bd.F
	src := bd.Param(0)
	vars := make([]ir.VarID, n)
	for i := range vars {
		vars[i] = f.NewVar("")
	}
	for _, i := range rng.Perm(n) {
		bd.CopyTo(vars[i], src)
	}
	bd.Ret(src)
	return f
}

// TestMergeBackwardMatchesSortedMerge: the galloping in-place merge must
// produce the sorted merge of its inputs, for singletons into classes of
// up to 5,000 members, for k members into n, and for members that all
// land before, after or around the other list — with the larger list's
// array holding the result and with the smaller one's.
func TestMergeBackwardMatchesSortedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := permutedChain(rng, 6000)
	chk := newChecker(f, false)
	classes := congruence.New(chk)
	order := func(a, b ir.VarID) int {
		if d := chk.DefOrder(a, b); d != 0 {
			return d
		}
		return int(a) - int(b)
	}
	byDef := make([]ir.VarID, len(f.Vars))
	for i := range byDef {
		byDef[i] = ir.VarID(i)
	}
	slices.SortFunc(byDef, order)
	// split deals the variables byDef[lo:hi] out to two sorted lists: each
	// goes to y with probability p.
	split := func(lo, hi int, p float64) (x, y []ir.VarID) {
		for _, v := range byDef[lo:hi] {
			if rng.Float64() < p {
				y = append(y, v)
			} else {
				x = append(x, v)
			}
		}
		return x, y
	}
	check := func(x, y []ir.VarID) {
		t.Helper()
		want := append(append([]ir.VarID(nil), x...), y...)
		slices.SortFunc(want, order)
		for _, into := range [][2][]ir.VarID{{x, y}, {y, x}} {
			dst := make([]ir.VarID, len(into[0]), len(x)+len(y))
			copy(dst, into[0])
			if got := congruence.MergeBackward(classes, dst, into[1]); !slices.Equal(got, want) {
				t.Fatalf("merging %d members into %d: got %v, want %v", len(into[1]), len(into[0]), got, want)
			}
		}
	}
	for _, n := range []int{1, 2, 3, 10, 100, 1000, 5000} {
		for trial := 0; trial < 20; trial++ {
			// A singleton into n: any member of a span of n+1, the last and
			// the first included.
			lo, k := rng.Intn(len(byDef)-n), rng.Intn(n+1)
			switch trial {
			case 0:
				k = 0
			case 1:
				k = n
			}
			span := byDef[lo : lo+n+1]
			check(slices.Delete(slices.Clone(span), k, k+1), span[k:k+1])
		}
		for _, p := range []float64{0.05, 0.3, 0.5} {
			lo := rng.Intn(len(byDef) - n)
			check(split(lo, lo+n, p)) // k into n, interleaved
		}
		// Runs at both ends: y takes a prefix and a suffix of the span.
		lo := rng.Intn(len(byDef) - n - 20)
		x := append([]ir.VarID(nil), byDef[lo+10:lo+10+n]...)
		y := append(append([]ir.VarID(nil), byDef[lo:lo+10]...), byDef[lo+10+n:lo+20+n]...)
		check(x, y)
		check(x, byDef[lo:lo+10])        // all before
		check(x, byDef[lo+10+n:lo+20+n]) // all after
	}
}
