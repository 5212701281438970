package outofssa_test

import (
	"context"
	"testing"

	"repro/outofssa"
)

// clashes reports whether two appearing variables, or two blocks, of f
// share a display name.
func clashes(f *outofssa.Func) bool {
	vars := map[string]outofssa.VarID{}
	for _, b := range f.Blocks {
		for _, list := range [][]*outofssa.Instr{b.Phis, b.Instrs} {
			for _, in := range list {
				for _, v := range append(append([]outofssa.VarID(nil), in.Defs...), in.Uses...) {
					n := f.VarName(v)
					if w, ok := vars[n]; ok && w != v {
						return true
					}
					vars[n] = v
				}
			}
		}
	}
	blocks := map[string]bool{}
	for _, b := range f.Blocks {
		if blocks[b.Name] {
			return true
		}
		blocks[b.Name] = true
	}
	return false
}

// TestPrintedTranslationsReparse: for inputs whose translations mint a
// name the input already uses, the served text of every strategy parses
// and behaves like the input.
func TestPrintedTranslationsReparse(t *testing.T) {
	for _, src := range []string{cycleTempSrc, primedCopySrc, splitBlockSrc} {
		in := outofssa.MustParse(src)
		clashed := 0
		for _, s := range outofssa.Strategies {
			tr, err := outofssa.New(outofssa.WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			res, err := tr.Translate(context.Background(), outofssa.Clone(in))
			if err != nil {
				t.Fatalf("%s %s: %v", in.Name, s, err)
			}
			if clashes(res.Func) {
				clashed++
			}
			text := res.Func.String()
			out, err := outofssa.Parse(text)
			if err != nil {
				t.Errorf("%s %s: printed output does not parse: %v\n%s", in.Name, s, err, text)
				continue
			}
			for _, params := range [][]int64{{3, 5}, {4, -2}, {7, 1}} {
				want, err := outofssa.Interpret(in, params[:in.NumParams], 10000)
				if err != nil {
					t.Fatalf("%s: input fails for %v: %v", in.Name, params, err)
				}
				got, err := outofssa.Interpret(out, params[:in.NumParams], 20000)
				if err != nil || !outofssa.Equivalent(want, got) {
					t.Errorf("%s %s: re-parsed output differs for %v (%v)\n%s", in.Name, s, params, err, text)
				}
			}
		}
		t.Logf("%s: %d of %d strategies mint a clashing name", in.Name, clashed, len(outofssa.Strategies))
		if clashed == 0 {
			t.Errorf("%s: no strategy mints a clashing name; the shape lost its teeth", in.Name)
		}
	}
}
