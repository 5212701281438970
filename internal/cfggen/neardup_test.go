package cfggen_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/dom"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/ssa"
)

func neardupProfile() cfggen.NearDuplicateProfile {
	p := cfggen.DefaultProfile("neardup", 13)
	p.Funcs = 4
	return cfggen.NearDuplicateProfile{Base: p, Clones: 4, EditSeed: 14}
}

// TestNearDuplicatesShape: deterministic output, base functions identical
// to a plain Generate run, clones interleaved right behind their base, and
// every clone in verifiable strict SSA form.
func TestNearDuplicatesShape(t *testing.T) {
	p := neardupProfile()
	got := cfggen.GenerateNearDuplicates(p)
	again := cfggen.GenerateNearDuplicates(p)
	if len(got) != len(again) || len(got) != p.Base.Funcs*(p.Clones+1) {
		t.Fatalf("%d functions (rerun %d), want %d", len(got), len(again), p.Base.Funcs*(p.Clones+1))
	}
	for i := range got {
		if got[i].String() != again[i].String() {
			t.Fatalf("function %d not deterministic", i)
		}
	}

	base := cfggen.Generate(p.Base)
	stride := p.Clones + 1
	for i, b := range base {
		if got[i*stride].String() != b.String() {
			t.Fatalf("base %s was perturbed by near-duplication", b.Name)
		}
	}

	for _, f := range got {
		if err := ssa.VerifyIn(f, dom.Build(f), nil); err != nil {
			t.Fatalf("%s is not strict SSA: %v", f.Name, err)
		}
	}
}

// TestNearDuplicatesFingerprints: rename-only clones share their base's
// fingerprint (the guaranteed memo hits); structurally edited clones do
// not (the guaranteed misses).
func TestNearDuplicatesFingerprints(t *testing.T) {
	p := neardupProfile()
	got := cfggen.GenerateNearDuplicates(p)
	stride := p.Clones + 1
	for i := 0; i < len(got); i += stride {
		base := got[i]
		fp := base.Fingerprint()
		for j := 0; j < p.Clones; j++ {
			c := got[i+1+j]
			same := c.Fingerprint() == fp
			switch j % 3 {
			case 0:
				if !same {
					t.Fatalf("rename-only clone %s moved the fingerprint", c.Name)
				}
			case 1:
				if same {
					t.Fatalf("dead-copy clone %s kept its base's fingerprint", c.Name)
				}
			}
			// j%3 == 2 may fall back to rename-only; either is fine.
		}
	}
}

// TestNearDuplicatesBehaviour: every clone is observably equivalent to its
// base — the edits change structure (or nothing but names), never
// behaviour.
func TestNearDuplicatesBehaviour(t *testing.T) {
	p := neardupProfile()
	got := cfggen.GenerateNearDuplicates(p)
	stride := p.Clones + 1
	params := [][]int64{{0, 0}, {1, 7}, {13, 5}}
	for i := 0; i < len(got); i += stride {
		base := got[i]
		for j := 0; j < p.Clones; j++ {
			c := got[i+1+j]
			for _, in := range params {
				want, errW := interp.Run(base, in, 1<<20)
				have, errH := interp.Run(c, in, 1<<20)
				if (errW == nil) != (errH == nil) {
					t.Fatalf("%s: interp errors diverge from base: %v vs %v", c.Name, errW, errH)
				}
				if errW == nil && !interp.Equal(want, have) {
					t.Fatalf("%s: behaviour differs from base on %v", c.Name, in)
				}
			}
		}
	}
}

// TestNearDuplicatesKeepNamesUnique: rename and edit clones must still
// round-trip through the textual form (unique printable names), which the
// serve-layer corpus rendering depends on. Parsing normalizes block order,
// so the check is structural — same counts and same behaviour through the
// wire — plus print-stability of the parsed form.
func TestNearDuplicatesKeepNamesUnique(t *testing.T) {
	for _, f := range cfggen.GenerateNearDuplicates(neardupProfile()) {
		r, err := ir.Parse(f.String())
		if err != nil {
			t.Fatalf("%s does not round-trip: %v", f.Name, err)
		}
		// Var counts differ legitimately: the universe keeps entries the
		// printed form never references. Block structure must survive.
		if len(r.Blocks) != len(f.Blocks) {
			t.Fatalf("%s: reparse changed block count: %d vs %d",
				f.Name, len(r.Blocks), len(f.Blocks))
		}
		for _, in := range [][]int64{{0, 0}, {3, 4}} {
			want, errW := interp.Run(f, in, 1<<20)
			have, errH := interp.Run(r, in, 1<<20)
			if (errW == nil) != (errH == nil) || (errW == nil && !interp.Equal(want, have)) {
				t.Fatalf("%s: behaviour changed through the wire on %v", f.Name, in)
			}
		}
	}
}
