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
			classes := congruence.New(newChecker(f, true))
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
