package ir_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cfggen"
	"repro/internal/ir"
	"repro/outofssa"
)

// sameFunc reports the first difference between two parsed functions:
// names, variable numbering, block order, edge order, operands, Aux, Freq
// and NumParams.
func sameFunc(a, b *ir.Func) error {
	if a.Name != b.Name || a.NumParams != b.NumParams {
		return fmt.Errorf("header %q/%d vs %q/%d", a.Name, a.NumParams, b.Name, b.NumParams)
	}
	if len(a.Vars) != len(b.Vars) {
		return fmt.Errorf("%d vs %d variables", len(a.Vars), len(b.Vars))
	}
	for i, v := range a.Vars {
		w := b.Vars[i]
		if v.ID != w.ID || v.Name != w.Name || v.Reg != w.Reg || a.VarName(v.ID) != b.VarName(w.ID) {
			return fmt.Errorf("variable %d: %+v vs %+v", i, *v, *w)
		}
	}
	if len(a.Blocks) != len(b.Blocks) {
		return fmt.Errorf("%d vs %d blocks", len(a.Blocks), len(b.Blocks))
	}
	ids := func(bs []*ir.Block) []int {
		var out []int
		for _, x := range bs {
			out = append(out, x.ID)
		}
		return out
	}
	for i, x := range a.Blocks {
		y := b.Blocks[i]
		if x.ID != y.ID || x.Name != y.Name || x.Freq != y.Freq {
			return fmt.Errorf("block %d: %d %q %v vs %d %q %v", i, x.ID, x.Name, x.Freq, y.ID, y.Name, y.Freq)
		}
		if !slices.Equal(ids(x.Preds), ids(y.Preds)) || !slices.Equal(ids(x.Succs), ids(y.Succs)) {
			return fmt.Errorf("block %s: edges %v->%v vs %v->%v", x.Name, ids(x.Preds), ids(x.Succs), ids(y.Preds), ids(y.Succs))
		}
		for k, lists := range [2][2][]*ir.Instr{{x.Phis, y.Phis}, {x.Instrs, y.Instrs}} {
			if len(lists[0]) != len(lists[1]) {
				return fmt.Errorf("block %s: list %d has %d vs %d instructions", x.Name, k, len(lists[0]), len(lists[1]))
			}
			for j, in := range lists[0] {
				jn := lists[1][j]
				if in.Op != jn.Op || in.Aux != jn.Aux || !slices.Equal(in.Defs, jn.Defs) || !slices.Equal(in.Uses, jn.Uses) {
					return fmt.Errorf("block %s: instruction %d: %+v vs %+v", x.Name, j, *in, *jn)
				}
			}
		}
	}
	return nil
}

// wantString is the printer's specification: the reference printer's text
// after every appearing variable and block has been given its distinct
// printed name. The renaming here is a naive restatement of the rule in
// Func.String's doc comment.
func wantString(f *ir.Func) string {
	g := ir.Clone(f)
	var appear []ir.VarID
	seen := map[ir.VarID]bool{}
	for _, b := range f.Blocks {
		for _, in := range append(slices.Clip(b.Phis), b.Instrs...) {
			for _, v := range append(slices.Clip(in.Defs), in.Uses...) {
				if v != ir.NoVar && !seen[v] {
					seen[v] = true
					appear = append(appear, v)
				}
			}
		}
	}
	slices.Sort(appear)
	raw := make([]string, len(appear))
	for i, v := range appear {
		raw[i] = f.VarName(v)
	}
	for i, n := range rename(raw) {
		g.Vars[appear[i]].Name = n
	}
	var blocks []string
	for _, b := range f.Blocks {
		blocks = append(blocks, b.Name)
	}
	for i, n := range rename(blocks) {
		g.Blocks[i].Name = n
	}
	return ir.RefString(g)
}

func rename(names []string) []string {
	taken := map[string]bool{}
	for _, n := range names {
		taken[n] = true
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = n
		if !slices.Contains(names[:i], n) {
			continue
		}
		for k := 1; ; k++ {
			if c := n + "." + strconv.Itoa(k); !taken[c] {
				taken[c] = true
				out[i] = c
				break
			}
		}
	}
	return out
}

// matchReference holds Parse and ParseAll to the reference parser on src:
// the same verdict and error text, the same functions, and the same printed
// text.
func matchReference(src string) error {
	f, err := ir.Parse(src)
	g, rerr := ir.RefParse(src)
	if err := sameOutcome("Parse", err, rerr); err != nil {
		return err
	}
	if err == nil {
		if err := samePrinted(f, g); err != nil {
			return err
		}
	}
	fs, err := ir.ParseAll(src)
	gs, rerr := ir.RefParseAll(src)
	if err := sameOutcome("ParseAll", err, rerr); err != nil {
		return err
	}
	if len(fs) != len(gs) {
		return fmt.Errorf("ParseAll: %d vs %d functions", len(fs), len(gs))
	}
	for i := range fs {
		if err := samePrinted(fs[i], gs[i]); err != nil {
			return fmt.Errorf("ParseAll function %d: %w", i, err)
		}
	}
	return nil
}

func sameOutcome(what string, err, rerr error) error {
	if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
		return fmt.Errorf("%s: error %v, reference %v", what, err, rerr)
	}
	return nil
}

func samePrinted(f, g *ir.Func) error {
	if err := sameFunc(f, g); err != nil {
		return err
	}
	if got, want := f.String(), wantString(g); got != want {
		return fmt.Errorf("printed\n%s\nwant\n%s", got, want)
	}
	return nil
}

// diffCorpus is generated functions of the three profiles, plus the
// DefaultProfile ones translated under every strategy.
func diffCorpus(t testing.TB) []*ir.Func {
	fns := cfggen.Generate(cfggen.DefaultProfile("diff", 3))
	fns = append(fns, cfggen.GenerateLarge(cfggen.LargeTranslateProfile("difft", 3, 0.2))...)
	fns = append(fns, cfggen.GenerateLarge(cfggen.LargeLivenessProfile("diffl", 3, 0.05))...)
	inputs := cfggen.Generate(cfggen.DefaultProfile("diff", 4))
	for _, s := range outofssa.Strategies {
		tr, err := outofssa.New(outofssa.WithStrategy(s))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range inputs {
			res, err := tr.Translate(context.Background(), ir.Clone(f))
			if err != nil {
				t.Fatalf("%s: %s: %v", s, f.Name, err)
			}
			fns = append(fns, res.Func)
		}
	}
	return fns
}

func TestParseMatchesReferenceOnCorpus(t *testing.T) {
	for _, f := range diffCorpus(t) {
		text := f.String()
		if want := wantString(f); text != want {
			t.Fatalf("%s: printed\n%s\nwant\n%s", f.Name, text, want)
		}
		if err := matchReference(text); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

// mutate applies one random edit to src: a byte flip, a deleted, swapped
// or inserted line, truncation, a tab, a trailing comment or a non-ASCII
// byte.
func mutate(rng *rand.Rand, src string, donors []string) string {
	lines := strings.Split(src, "\n")
	line := rng.Intn(len(lines))
	switch rng.Intn(9) {
	case 0: // flip a byte to a grammar-relevant or random one
		if len(src) == 0 {
			return src
		}
		b := []byte(src)
		const alphabet = " \t\n:=(){}/'._-0123456789abfxz"
		c := alphabet[rng.Intn(len(alphabet))]
		if rng.Intn(4) == 0 {
			c = byte(rng.Intn(256))
		}
		b[rng.Intn(len(b))] = c
		return string(b)
	case 1: // delete a line
		lines = slices.Delete(lines, line, line+1)
	case 2: // swap two lines
		other := rng.Intn(len(lines))
		lines[line], lines[other] = lines[other], lines[line]
	case 3: // insert a line from another function
		donor := strings.Split(donors[rng.Intn(len(donors))], "\n")
		lines = slices.Insert(lines, line, donor[rng.Intn(len(donor))])
	case 4: // truncate
		return src[:rng.Intn(len(src)+1)]
	case 5: // a tab somewhere in a line
		l := lines[line]
		at := rng.Intn(len(l) + 1)
		lines[line] = l[:at] + "\t" + l[at:]
	case 6: // a trailing comment
		lines[line] += " // c:" + strconv.Itoa(rng.Intn(9))
	case 7: // a non-ASCII byte or rune: invalid UTF-8, NEL, NBSP, a letter
		l := lines[line]
		at := rng.Intn(len(l) + 1)
		ins := []string{"\x85", "\xc2\x85", "\u00a0", "é", "\u2028", "\xff"}[rng.Intn(6)]
		lines[line] = l[:at] + ins + l[at:]
	case 8: // a stray header, brace or label line
		lines = slices.Insert(lines, line, []string{"func h {", "}", "x:", "func", " (freq 2):"}[rng.Intn(5)])
	}
	return strings.Join(lines, "\n")
}

// smallDonors returns the text of small generated functions: every grammar
// shape occurs in them, and they keep mutation and fuzzing fast.
func smallDonors() []string {
	prof := cfggen.DefaultProfile("mut", 5)
	prof.Funcs, prof.MinStmts, prof.MaxStmts, prof.MaxDepth = 24, 4, 20, 3
	var donors []string
	for _, f := range cfggen.Generate(prof) {
		donors = append(donors, f.String())
	}
	return donors
}

func TestParseMatchesReferenceOnMutations(t *testing.T) {
	n := 100_000
	if testing.Short() || raceEnabled {
		n = 5_000
	}
	donors := smallDonors()
	rng := rand.New(rand.NewSource(1))
	rejected := 0
	for i := 0; i < n; i++ {
		src := donors[rng.Intn(len(donors))]
		if rng.Intn(4) == 0 { // a stream of two functions
			src += donors[rng.Intn(len(donors))]
		}
		for k := rng.Intn(3); k >= 0; k-- {
			src = mutate(rng, src, donors)
		}
		if err := matchReference(src); err != nil {
			t.Fatalf("mutation %d: %v\nsource:\n%s", i, err, src)
		}
		if _, err := ir.ParseAll(src); err != nil {
			rejected++
		}
	}
	t.Logf("%d mutated sources, %d rejected by ParseAll", n, rejected)
	if rejected == 0 || rejected == n {
		t.Fatalf("mutations are all accepted or all rejected (%d of %d rejected)", rejected, n)
	}
}

// FuzzParseMatchesReference holds Parse, ParseAll and String to the
// reference parser and printer on arbitrary sources.
func FuzzParseMatchesReference(f *testing.F) {
	for _, src := range smallDonors()[:4] {
		f.Add(src)
	}
	f.Add("func f {\nentry:\n  x = const 1\n  jump entry\n}\n}\nfunc g {\nb (freq 2.5):\n  ret\n}")
	f.Add("// lead\nfun f {\nentry:\n  ret\n}\nfunc g {\nentry:\n  ret\n}")
	f.Add("func f {\nentry:\n  x = phi a:\n  parcopy p:q q:p\n  ret x\n}")
	f.Fuzz(func(t *testing.T, src string) {
		if err := matchReference(src); err != nil {
			t.Fatal(err)
		}
	})
}
