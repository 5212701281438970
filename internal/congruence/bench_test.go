package congruence_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/congruence"
	"repro/internal/ir"
)

// BenchmarkInterferesLinear checks a one-member class against classes of
// n members. The n members x0..x(n-1) are defined one after another, each
// dead before the next, and the one member s follows them, so no member
// of the larger class has a smaller-class ancestor: the traversal should
// cost about the same whatever n is.
func BenchmarkInterferesLinear(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var src strings.Builder
			src.WriteString("func chain {\nentry:\n")
			for i := 0; i < n; i++ {
				fmt.Fprintf(&src, "  x%d = const %d\n  print x%d\n", i, i, i)
			}
			src.WriteString("  s = const -1\n  print s\n  ret s\n}\n")
			f := ir.MustParse(src.String())
			classes := congruence.NewIn(newChecker(f, true), nil)
			// Variables are numbered in order of first mention: x0..x(n-1), s.
			for i := 1; i < n; i++ {
				classes.MergeSimple(0, ir.VarID(i))
			}
			s := ir.VarID(n)
			if len(classes.Members(0)) != n || f.VarName(s) != "s" {
				b.Fatal("unexpected class layout")
			}
			for b.Loop() {
				if classes.InterferesLinear(s, 0) {
					b.Fatal("s interferes with no member")
				}
			}
		})
	}
}

// BenchmarkMergeSingleton merges a one-member class into a class of n
// members with the in-place merge of the class storage. The singleton is
// defined halfway along the n members, so the merge has to place it among
// them; each iteration then deletes it again with one copy.
func BenchmarkMergeSingleton(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var src strings.Builder
			src.WriteString("func chain {\nentry:\n")
			for i := 0; i <= n; i++ {
				fmt.Fprintf(&src, "  x%d = const %d\n", i, i)
			}
			src.WriteString("  ret x0\n}\n")
			f := ir.MustParse(src.String())
			classes := congruence.NewIn(newChecker(f, true), nil)
			// Variables are numbered in order of definition: x0..xn.
			mid := n / 2
			list := make([]ir.VarID, 0, n+1)
			for i := 0; i <= n; i++ {
				if i != mid {
					list = append(list, ir.VarID(i))
				}
			}
			single := []ir.VarID{ir.VarID(mid)}
			for b.Loop() {
				out := congruence.MergeBackward(classes, list, single)
				copy(out[mid:], out[mid+1:])
			}
			if list[mid] != ir.VarID(mid+1) {
				b.Fatal("the class was not restored")
			}
		})
	}
}
