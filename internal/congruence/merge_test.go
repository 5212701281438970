package congruence_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/congruence"
	"repro/internal/ir"
	"repro/internal/sreedhar"
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
	classes := congruence.NewIn(chk, nil)
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

// forcedGroups returns the classes a translation builds by force: the
// variables pinned to each register, lowest ID first, then the φ-nodes of
// Method I.
func forcedGroups(f *ir.Func, ins *sreedhar.Insertion) [][]ir.VarID {
	byReg := map[string]int{}
	var groups [][]ir.VarID
	for i, v := range f.Vars {
		if v.Reg == "" {
			continue
		}
		g, ok := byReg[v.Reg]
		if !ok {
			g = len(groups)
			byReg[v.Reg] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], ir.VarID(i))
	}
	return append(groups, ins.PhiNodes...)
}

// pinnedCopies returns a function whose variables pinned to R1 are copies
// of one parameter, all live until the end: each is an equal-intersecting
// ancestor of the next, which generated functions almost never show.
func pinnedCopies() *ir.Func {
	bd := ir.NewBuilder("pinned-copies")
	x := bd.Param(0)
	var pins []ir.VarID
	for _, name := range []string{"p0", "p1", "p2", "p3"} {
		p := bd.F.NewPinnedVar(name, "R1")
		bd.CopyTo(p, x)
		pins = append(pins, p)
	}
	for _, p := range pins {
		bd.Print(p)
	}
	bd.Ret(x)
	return bd.F
}

// TestMergeSingletonsMatchesPairwise: building every forced class in one
// pass must give the classes that merging each later member into the first
// with MergeForced gives — the same representative for every variable, the
// same member order, the same equal-intersecting ancestors and the same
// register labels — on both liveness backends, with no more intersection
// queries. The inputs are the pinned-register groups and φ-nodes of
// copy-inserted DefaultProfile functions, the φ-nodes of large translate-
// and liveness-profile functions, and a pinned group of equal values.
func TestMergeSingletonsMatchesPairwise(t *testing.T) {
	p := cfggen.DefaultProfile("forced", 2121)
	p.Funcs, p.MinStmts, p.MaxStmts = 24, 90, 280 // the shape of bench.Suite's largest functions
	funcs := cfggen.Generate(p)
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeTranslateProfile("forced-t", 8009, 0.1))...)
	funcs = append(funcs, cfggen.GenerateLarge(cfggen.LargeLivenessProfile("forced-l", 1009, 0.05))...)
	funcs = append(funcs, pinnedCopies())
	var pinned, widest, chains, queriesPair, queriesOnce int
	for _, f := range funcs {
		sreedhar.SplitDuplicatePredEdges(f)
		sreedhar.SplitBranchDefEdges(f)
		ins, err := sreedhar.InsertCopies(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		groups := forcedGroups(f, ins)
		for _, lc := range []bool{true, false} {
			chkPair, chkOnce := newChecker(f, lc), newChecker(f, lc)
			pair, once := congruence.NewIn(chkPair, nil), congruence.NewIn(chkOnce, nil)
			for _, vs := range groups {
				for _, v := range vs[1:] {
					pair.MergeForced(vs[0], v)
				}
				if root := once.MergeSingletons(vs); root != vs[0] {
					t.Fatalf("%s: class of %s rooted at %s", f.Name, f.VarName(vs[0]), f.VarName(root))
				}
			}
			for v := range f.Vars {
				vid := ir.VarID(v)
				switch {
				case once.Find(vid) != pair.Find(vid):
					t.Fatalf("%s livecheck=%v: Find(%s) = %s, pairwise %s", f.Name, lc, f.VarName(vid),
						f.VarName(once.Find(vid)), f.VarName(pair.Find(vid)))
				case !slices.Equal(once.Members(vid), pair.Members(vid)):
					t.Fatalf("%s livecheck=%v: members of %s %v, pairwise %v", f.Name, lc, f.VarName(vid),
						names(f, once.Members(vid)), names(f, pair.Members(vid)))
				case once.EqualAncIn(vid) != pair.EqualAncIn(vid):
					t.Fatalf("%s livecheck=%v: equal_anc_in(%s) = %d, pairwise %d", f.Name, lc, f.VarName(vid),
						once.EqualAncIn(vid), pair.EqualAncIn(vid))
				case once.Reg(vid) != pair.Reg(vid):
					t.Fatalf("%s livecheck=%v: Reg(%s) = %q, pairwise %q", f.Name, lc, f.VarName(vid),
						once.Reg(vid), pair.Reg(vid))
				}
				if lc && once.EqualAncIn(vid) != ir.NoVar {
					chains++
				}
			}
			if chkOnce.Queries > chkPair.Queries {
				t.Fatalf("%s livecheck=%v: %d intersection queries, pairwise %d", f.Name, lc, chkOnce.Queries, chkPair.Queries)
			}
			queriesPair += chkPair.Queries
			queriesOnce += chkOnce.Queries
		}
		for _, vs := range groups[:len(groups)-len(ins.PhiNodes)] {
			pinned++
			widest = max(widest, len(vs))
		}
	}
	// The corpus must exercise what the one-pass build replaces: pinned
	// groups of many members, intersection queries and equal-intersecting-
	// ancestor chains.
	if pinned == 0 || widest < 3 || chains == 0 || queriesOnce == 0 {
		t.Fatalf("corpus too tame: %d pinned groups, widest %d, %d chain links", pinned, widest, chains)
	}
	t.Logf("%d pinned groups (widest %d), %d chain links, %d queries one-pass against %d pairwise",
		pinned, widest, chains, queriesOnce, queriesPair)
}

// TestMergeSingletonsRejectsMergedMember: a member that is already part of
// a larger class, or one listed twice, can only come from a bug in the
// caller, and the one-pass build must panic instead of linking it.
func TestMergeSingletonsRejectsMergedMember(t *testing.T) {
	f := ir.MustParse(`
func s {
entry:
  a = param 0
  b = copy a
  c = copy a
  d = copy a
  print b
  print c
  print d
  ret a
}
`)
	a, b, c, d := ir.VarID(0), ir.VarID(1), ir.VarID(2), ir.VarID(3)
	for _, tc := range []struct {
		name   string
		merged bool // b and c are merged first
		vs     []ir.VarID
	}{
		{"merged member", true, []ir.VarID{a, b}},
		{"merged first member", true, []ir.VarID{c, d}},
		{"member twice", false, []ir.VarID{a, b, b}},
		{"first member again", false, []ir.VarID{a, b, a}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			classes := congruence.NewIn(newChecker(f, false), nil)
			if tc.merged {
				classes.MergeForced(b, c)
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("MergeSingletons(%v) did not panic", names(f, tc.vs))
				}
			}()
			classes.MergeSingletons(tc.vs)
		})
	}
}
