package outofssa_test

import (
	"context"
	"strings"
	"testing"
	"unicode"

	"repro/outofssa"
)

// fuzzSeeds are the in-source seed corpus shared by both fuzz targets
// (testdata/fuzz/ holds the same shapes as committed corpus files, plus
// whatever the fuzzer later minimizes). They cover the paper's interesting
// structures: straight line, diamond with φ, the lost-copy loop, the swap
// problem (cyclic parallel copy), and an irreducible loop entered at two
// blocks, where the fast liveness check's back-edge targets do not
// dominate their sources.
var fuzzSeeds = []string{
	"func f {\nentry:\n  a = param 0\n  b = const 2\n  c = add a b\n  print c\n  ret c\n}\n",
	`
func diamond {
entry:
  c = param 0
  x0 = const 1
  br c left right
left:
  x1 = const 2
  jump join
right:
  x2 = add x0 x0
  jump join
join:
  x3 = phi left:x1 right:x2
  print x3
  ret x3
}
`,
	`
func lostcopy {
entry:
  x1 = param 0
  jump loop
loop (freq 10):
  x2 = phi entry:x1 loop:x3
  one = const 1
  x3 = add x2 one
  ten = const 10
  c = cmplt x3 ten
  br c loop exit
exit:
  print x2
  ret x2
}
`,
	`
func swap {
entry:
  a1 = param 0
  b1 = param 1
  jump loop
loop:
  a2 = phi entry:a1 loop:b2
  b2 = phi entry:b1 loop:a2
  s = add a2 b2
  lim = const 20
  c = cmplt s lim
  br c loop exit
exit:
  ret s
}
`,
	`
func twoentry {
entry:
  n = param 0
  z = const 0
  br n a b
a:
  i = phi entry:z b:s
  one = const 1
  j = add i one
  lim = const 12
  c = cmplt j lim
  br c b exit
b:
  k = phi entry:n a:j
  two = const 2
  s = add k two
  print s
  jump a
exit:
  r = add j n
  ret r
}
`,
	"func g {\nentry:\n  x = const 7\n  ret x\n}\nfunc h {\nentry:\n  y = param 0\n  print y\n  ret y\n}\n",
	"not ir at all",
	"func broken {\nentry:\n  x = phi nowhere:y\n}\n",
	cycleTempSrc,
	primedCopySrc,
	splitBlockSrc,
}

// Inputs that already use a name the translation mints: the
// sequentializer's cycle temporary "swap", the primed copy z' of the φ
// result z, and the block loop_loop that splitting a brdec self-loop
// creates. Their printed translations must still re-parse to the same
// program.
const (
	cycleTempSrc = `
func cycletemp {
entry:
  a = param 0
  b = param 1
  swap = const 3
  zero = const 0
  jump loop
loop (freq 10):
  a2 = phi entry:a loop:b2
  b2 = phi entry:b loop:a2
  p = phi entry:zero loop:p2
  one = const 1
  p2 = add p one
  c = cmplt p2 swap
  print a2
  print b2
  br c loop exit
exit:
  r = add a2 swap
  ret r
}
`
	primedCopySrc = `
func primed {
entry:
  x = param 0
  z' = const 3
  jump loop
loop (freq 10):
  z = phi entry:x loop:y
  one = const 1
  y = add z one
  ten = const 10
  c = cmplt y ten
  br c loop exit
exit:
  r = add z z'
  print z
  ret r
}
`
	splitBlockSrc = `
func splitblock {
entry:
  n = param 0
  x0 = const 1
  jump loop
loop (freq 10):
  x = phi entry:x0 loop:x2
  i = phi entry:n loop:i2
  two = const 2
  x2 = mul x two
  i2 = brdec i loop loop_loop
loop_loop:
  print x
  ret x2
}
`
)

// FuzzParse asserts the parser never panics, and that anything it accepts
// survives a print/re-parse round trip (String is Parse's inverse).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fn, err := outofssa.Parse(src)
		if err != nil {
			return
		}
		if _, err := outofssa.Parse(fn.String()); err != nil {
			t.Fatalf("accepted input does not re-parse after printing: %v\nprinted:\n%s", err, fn.String())
		}
	})
}

// FuzzTranslate is the differential oracle as a fuzz target. Any function
// the parser and SSA verifier accept must translate identically under two
// independent engines: the paper's baseline machinery (dataflow liveness
// sets, the bit-matrix interference graph, the quadratic class test) and
// the optimized default (fast liveness checking, direct queries, the
// linear class test). Both must succeed or fail together and print the
// same text. Both outputs must preserve the pristine function's observable
// behaviour under the interpreter — as translated, and as printed and
// parsed back, which is what a client of ssad receives. The printed check
// needs names the grammar can carry (wireNames).
func FuzzTranslate(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	ref, err := outofssa.New(outofssa.WithInterferenceGraph(true), outofssa.WithLinearClassTest(false))
	if err != nil {
		f.Fatal(err)
	}
	opt, err := outofssa.New()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fns, err := outofssa.ParseAll(src)
		if err != nil || len(fns) == 0 {
			return
		}
		fn := fns[0]
		if fn.NumParams > 8 {
			return // keep the interpreter's parameter vectors small
		}
		printed := wireNames(fn)
		pristine := outofssa.Clone(fn)
		refIn := outofssa.Clone(fn)

		refRes, refErr := ref.Translate(context.Background(), refIn)
		optRes, optErr := opt.Translate(context.Background(), fn)
		if (refErr == nil) != (optErr == nil) {
			t.Fatalf("reference and optimized disagree on success: ref=%v opt=%v\ninput:\n%s",
				refErr, optErr, pristine)
		}
		if refErr != nil {
			return // both reject (e.g. not strict SSA): consistent, done
		}
		if r, o := refRes.Func.String(), optRes.Func.String(); r != o {
			t.Fatalf("reference and optimized print different code\ninput:\n%s\nreference:\n%s\noptimized:\n%s",
				pristine, r, o)
		}

		outs := []*outofssa.Func{refRes.Func, optRes.Func}
		if printed {
			for _, out := range outs[:2] {
				g, err := outofssa.Parse(out.String())
				if err != nil {
					t.Fatalf("printed output does not parse: %v\ninput:\n%s\noutput:\n%s", err, pristine, out)
				}
				outs = append(outs, g)
			}
		}
		for trial := int64(0); trial < 3; trial++ {
			params := make([]int64, pristine.NumParams)
			for i := range params {
				params[i] = trial*5 + int64(i) - 1
			}
			want, err := outofssa.Interpret(pristine, params, 20000)
			if err != nil {
				continue // original run diverges or traps: not an oracle case
			}
			for i, out := range outs {
				what := [...]string{"reference", "optimized", "printed reference", "printed optimized"}[i]
				got, err := outofssa.Interpret(out, params, 20000)
				if err != nil {
					t.Fatalf("%s output fails to execute for %v: %v", what, params, err)
				}
				if !outofssa.Equivalent(want, got) {
					t.Fatalf("%s translation changed behaviour for %v\ninput:\n%s\noutput:\n%s",
						what, params, pristine, out)
				}
			}
		}
	})
}

// wireNames reports whether every variable and block name of f uses only
// letters, digits and _ . ' — names the text grammar round-trips. A name
// holding "=" or ":", or ending in ":", cannot be printed back at all, nor
// can a variable called func (its definition reads as a header).
func wireNames(f *outofssa.Func) bool {
	ok := func(name string) bool {
		if name == "func" {
			return false
		}
		for _, r := range name {
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) && !strings.ContainsRune("_.'", r) {
				return false
			}
		}
		return true
	}
	for _, v := range f.Vars {
		if !ok(v.Name) {
			return false
		}
	}
	for _, b := range f.Blocks {
		if !ok(b.Name) {
			return false
		}
	}
	return true
}
