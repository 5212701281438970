package sreedhar_test

import (
	"testing"

	"repro/internal/ir"
)

// phiWebs groups the variables of f into φ-webs: the equivalence classes of
// the transitive closure of "appears in the same φ-function". The SSA form
// is conventional (CSSA) exactly when no two variables of a web interfere,
// in which case every web can be given a single name and all φ-functions
// removed (paper, Section II-A).
//
// The returned slice maps each variable to its web representative
// (union-find root); variables not touching any φ map to themselves.
func phiWebs(f *ir.Func) []ir.VarID {
	parent := make([]ir.VarID, len(f.Vars))
	for i := range parent {
		parent[i] = ir.VarID(i)
	}
	var find func(x ir.VarID) ir.VarID
	find = func(x ir.VarID) ir.VarID {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b ir.VarID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for _, u := range phi.Uses {
				union(phi.Defs[0], u)
			}
		}
	}
	for i := range parent {
		parent[i] = find(ir.VarID(i))
	}
	return parent
}

// webMembers inverts the representative map of phiWebs, returning only webs
// with at least two members (singletons are uninteresting to CSSA checks).
func webMembers(webs []ir.VarID) map[ir.VarID][]ir.VarID {
	out := map[ir.VarID][]ir.VarID{}
	for v, r := range webs {
		out[r] = append(out[r], ir.VarID(v))
	}
	for r, members := range out {
		if len(members) < 2 {
			delete(out, r)
		}
	}
	return out
}

func TestWebs(t *testing.T) {
	src := `
func w {
entry:
  a = param 0
  b = param 1
  br a l r
l:
  jump j
r:
  jump j
j:
  p = phi l:a r:b
  q = phi l:b r:a
  z = add p q
  print z
  ret z
}
`
	f := ir.MustParse(src)
	webs := phiWebs(f)
	id := func(n string) ir.VarID {
		for i, v := range f.Vars {
			if v.Name == n {
				return ir.VarID(i)
			}
		}
		panic(n)
	}
	// Both φs mention a and b: everything collapses into one web.
	if webs[id("p")] != webs[id("q")] || webs[id("p")] != webs[id("a")] || webs[id("a")] != webs[id("b")] {
		t.Fatal("p, q, a, b must share a web")
	}
	if webs[id("z")] == webs[id("p")] {
		t.Fatal("z touches no φ: separate web")
	}
	members := webMembers(webs)
	if len(members) != 1 {
		t.Fatalf("one non-trivial web expected, got %d", len(members))
	}
}
