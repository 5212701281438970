package repro

import (
	"errors"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// module is this module's path, the prefix of every symbol the gate reads.
const module = "repro"

// deadcheckAllow holds the functions declared in library packages' non-test
// files that no binary of the module links. Each stays for the reason given,
// which names its callers. Keys are linker symbol names. A function that only
// its own package's tests call belongs in a _test.go file instead.
var deadcheckAllow = map[string]string{
	// Oracles and generators that tests in several packages share.
	"repro/internal/liveness.ComputeReference":         "the fixpoint oracle of the liveness, analysis and outofssa/bench tests and BenchmarkLiveness",
	"repro/internal/cfggen.GenerateNearDuplicates":     "the near-duplicate stream of internal/pipeline's memo tests and the cfggen tests",
	"repro/internal/cfggen.addDeadCopy":                "a mutation of GenerateNearDuplicates",
	"repro/internal/cfggen.renameAll":                  "a mutation of GenerateNearDuplicates",
	"repro/internal/cfggen.swapBranch":                 "a mutation of GenerateNearDuplicates",
	"repro/internal/cfggen.LargeScaleProfile":          "the scaled large-CFG profile of internal/pipeline's stealing tests and outofssa/bench's allocation tests",
	"repro/internal/cfggen.LargeCoalesceProfile":       "outofssa/bench.CoalesceCorpus and internal/interference's reference tests",
	"repro/internal/core.TranslateInto":                "the four phases in one call: the sequential reference of the core, pipeline, bench, regalloc and ir tests and the root benchmarks",
	"repro/internal/sreedhar.InsertCopies":             "Method I on a fresh insertion, for the sreedhar, congruence, coalesce, interference and livecheck tests and BenchmarkAblationClassInterference",
	"repro/internal/ir.DecodeBinary":                   "the strict decode, Verify included, that FuzzDecode and the ir and core memo tests compare DecodeBinaryInto against",
	"repro/internal/parcopy.NaiveCount":                "the naive copy count of the parcopy tests and BenchmarkAblationSequentialization",
	"repro/internal/faults.Disable":                    "disarms the failpoints after the faults tests and serve's chaos and text tests",
	"repro/internal/faults.Snapshot":                   "the fire counts the faults tests and serve's chaos and text tests assert; serve may read it for /v1/stats",
	"repro/outofssa/serve/client.(*Client).Batch":      "the typed /v1/batch call of the serve, client and chaos tests",
	"repro/outofssa/bench.LivenessCorpus":              "TestGoldenCounts, TestCorpusAllocs, the bench liveness tests and BenchmarkLiveness",
	"repro/outofssa/bench.(*LivenessCase).Func":        "LivenessCorpus's functions for its tests and benchmark",
	"repro/outofssa/bench.CoalesceCorpus":              "TestGoldenCounts, TestCorpusAllocs, the bench coalesce tests, internal/interference's reference tests and BenchmarkCoalesce",
	"repro/outofssa/bench.(*CoalesceCase).Func":        "CoalesceCorpus's functions for its tests and benchmark",
	"repro/outofssa/bench.(*CoalesceCase).Affs":        "CoalesceCorpus's affinities for the bench coalesce tests",
	"repro/outofssa/bench.(*CoalesceCase).NewChecker":  "CoalesceCorpus's checker for TestGoldenCounts, TestCorpusAllocs, internal/interference's reference tests and BenchmarkCoalesce",
	"repro/outofssa/bench.(*CoalesceCase).RunCoalesce": "one coalescing run for TestGoldenCounts, TestCorpusAllocs, internal/interference's reference tests and BenchmarkCoalesce",
	"repro/outofssa/bench.TranslateCorpus":             "TestGoldenCounts, TestCorpusAllocs, the bench translate tests and BenchmarkTranslate",
	"repro/outofssa/bench.(*TranslateCase).Func":       "TranslateCorpus's functions for its tests and benchmark",
	"repro/outofssa/bench.countPhis":                   "the φ count LivenessCorpus and TranslateCorpus record",

	// Accessors that only tests in other packages read.
	"repro/internal/dom.(*Tree).Func":              "internal/pipeline's storage tests check which function a cached tree belongs to",
	"repro/internal/dom.(*Tree).IDom":              "the dom, livecheck and internal/pipeline storage tests",
	"repro/internal/dom.(*Tree).StrictlyDominates": "the dom tests and the livecheck tests and fuzz target",
	"repro/internal/ir.(*DefUse).Func":             "internal/pipeline's storage tests check which function a cached index belongs to",
	"repro/internal/ir.(*Builder).Phi":             "the livecheck tests build φs by hand",
	"repro/internal/bitset.(*Set).Copy":            "the bitset tests and livecheck's test export",
	"repro/internal/bitset.(*Set).Elems":           "the bitset tests and livecheck's test export",
	"repro/internal/core.(*MemoEntry).Statuses":    "the core memo persistence tests and internal/pipeline's memo tests",
}

// TestEveryFunctionLinked is the dead-code gate. It builds every main
// package of the module with inlining off for the module's own packages,
// reads from `go tool nm` which module functions each binary links, and
// fails on every function declared in a library package's non-test files,
// init aside, that no binary links and deadcheckAllow does not hold. It
// also fails on an allowlist entry that a binary links or that is no
// longer declared.
//
// A method that satisfies a method of an interface some binary calls stays
// linked, so the gate finds a lower bound of the unused code, not all of
// it. The test reads every source file of the module itself, so go test's
// result cache sees an edit to any of them and reruns it.
func TestEveryFunctionLinked(t *testing.T) {
	mains, declared := walkModule(t)
	linked := linkedFuncs(t, mains)

	var unlinked []string
	for name := range declared {
		if !linked[name] && deadcheckAllow[name] == "" {
			unlinked = append(unlinked, name)
		}
	}
	sort.Strings(unlinked)
	for _, name := range unlinked {
		t.Errorf("%s: %s is linked by no binary: delete it, move it into a test file, or allowlist it with the callers that keep it", declared[name], name)
	}

	var stale []string
	for name := range deadcheckAllow {
		if linked[name] || declared[name] == "" {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		if linked[name] {
			t.Errorf("allowlisted %s is linked by a binary: remove its deadcheckAllow entry", name)
		} else {
			t.Errorf("allowlisted %s is no longer declared in a library package's non-test files: remove its deadcheckAllow entry", name)
		}
	}
	t.Logf("%d binaries link %d module functions; %d library functions declared, %d allowlisted", len(mains), len(linked), len(declared), len(deadcheckAllow))
}

// walkModule reads every package directory of the module. It returns the
// import paths of the main packages and, for every function declared in a
// library package's non-test files, its linker symbol name mapped to its
// position.
func walkModule(t *testing.T) (mains []string, declared map[string]string) {
	t.Helper()
	declared = make(map[string]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if base := d.Name(); dir != "." && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		// ImportDir opens every .go file in dir, test files included, to
		// read its package clause and build constraints.
		pkg, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		path := module
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		if pkg.Name == "main" {
			mains = append(mains, path)
			return nil
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") || fn.Name.Name == "_" {
					continue
				}
				declared[path+"."+receiver(fn)+fn.Name.Name] = fset.Position(fn.Pos()).String()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 || len(declared) == 0 {
		t.Fatalf("found %d main packages and %d library functions: run the test from the module root", len(mains), len(declared))
	}
	return mains, declared
}

// receiver returns the receiver part of a method's linker symbol name,
// "(*T)." or "T.", without type parameters; "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	typ := fn.Recv.List[0].Type
	star, ptr := typ.(*ast.StarExpr)
	if ptr {
		typ = star.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")."
	}
	return name + "."
}

// linkedFuncs builds the main packages into a temporary directory with
// inlining off for the module's packages, so every module function a
// binary calls keeps its own symbol, and returns the declared names of the
// module functions the binaries link. The standard library keeps its
// default flags and so comes from the build cache.
func linkedFuncs(t *testing.T, mains []string) map[string]bool {
	t.Helper()
	dir := t.TempDir()
	args := append([]string{"build", "-gcflags=" + module + "/...=-l", "-o", dir + string(filepath.Separator)}, mains...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) != len(mains) {
		t.Fatalf("built %d binaries for %d main packages", len(bins), len(mains))
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			if name, ok := linkedFunc(line); ok {
				linked[name] = true
			}
		}
	}
	return linked
}

// linkedFunc reads one line of `go tool nm` output, "ADDR TYPE NAME". For a
// text symbol of the module it returns the name of the declared function
// whose code the symbol is. The name can hold spaces (a shape of a struct
// type), so it is everything after the type letter.
func linkedFunc(line string) (string, bool) {
	_, rest, ok := strings.Cut(strings.TrimLeft(line, " "), " ")
	if !ok || len(rest) < 3 || rest[1] != ' ' || (rest[0] != 'T' && rest[0] != 't') {
		return "", false
	}
	sym := rest[2:]
	if !strings.HasPrefix(sym, module+"/") && !strings.HasPrefix(sym, module+".") {
		return "", false
	}
	return declaredName(sym), true
}

// declaredName reduces a linker symbol to the name of the declared function
// that holds its code: type arguments are dropped, and a closure, a defer
// or go wrapper, a range-over-func loop body or a method value resolves to
// the function it was written in.
func declaredName(sym string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(sym); i++ {
		switch c := sym[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	for {
		if i := strings.LastIndex(s, "-range"); i >= 0 && isDigits(s[i+len("-range"):]) {
			s = s[:i]
			continue
		}
		i := strings.LastIndexByte(s, '.')
		if i < 0 || !isClosure(s[i+1:]) {
			return s
		}
		s = s[:i]
	}
}

// isClosure reports whether one dot-separated part of a symbol names code
// the compiler generated inside a function: "func1", "1", "deferwrap1" or
// "gowrap1".
func isClosure(part string) bool {
	for _, prefix := range []string{"func", "deferwrap", "gowrap", ""} {
		if rest, ok := strings.CutPrefix(part, prefix); ok && isDigits(rest) {
			return true
		}
	}
	return false
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func TestLinkedFunc(t *testing.T) {
	for _, c := range []struct {
		line, want string
	}{
		{"  5d3e40 T repro/cmd/internal/profileflags.Start.func2.deferwrap1", "repro/cmd/internal/profileflags.Start"},
		{"  7a1c00 T repro/outofssa.(*Translator).Stream.func1.1", "repro/outofssa.(*Translator).Stream"},
		{"  7a1d20 T repro/outofssa.(*Translator).Stream.func1.1.1", "repro/outofssa.(*Translator).Stream"},
		{"  6f0e80 T repro/internal/pipeline.runBatchStealing.gowrap1", "repro/internal/pipeline.runBatchStealing"},
		{"  81a2e0 T repro/outofssa/serve.(*Server).handleTranslate-fm", "repro/outofssa/serve.(*Server).handleTranslate"},
		{"  81a400 T repro/outofssa/serve.(*Server).handleBatch-range1", "repro/outofssa/serve.(*Server).handleBatch"},
		{"  81a520 T repro/outofssa/serve.(*Server).recovering.func1.1", "repro/outofssa/serve.(*Server).recovering"},
		{"  5f0a60 T repro/internal/congruence.resize[go.shape.[]repro/internal/ir.VarID]", "repro/internal/congruence.resize"},
		{"  5f0b80 T repro/internal/ssa.resize[go.shape.struct { repro/internal/ssa.block int32; repro/internal/ssa.slot int32 }]", "repro/internal/ssa.resize"},
		{"  5f0ca0 T repro/internal/ir.freeSlots[go.shape.struct { ID repro/internal/ir.VarID; Name string; Reg string; repro/internal/ir.base repro/internal/ir.VarID }]", "repro/internal/ir.freeSlots"},
		{"  5f0dc0 t repro/internal/bitset.triIndex", "repro/internal/bitset.triIndex"},
		{"  5f0ee0 T repro/internal/ssa.VerifyIn", "repro/internal/ssa.VerifyIn"},
	} {
		if got, ok := linkedFunc(c.line); !ok || got != c.want {
			t.Errorf("linkedFunc(%q) = %q, %v; want %q, true", c.line, got, ok, c.want)
		}
	}
	for _, line := range []string{
		"  9c2f40 D repro/internal/faults.registry",
		"  8b1f20 R repro/internal/ssa..dict.resize[int32]",
		"  4a5b20 T type:.eq.repro/internal/ir.Instr",
		"  4a5c40 T runtime.mallocgc",
		"           U repro/internal/ir.Parse",
		"",
	} {
		if got, ok := linkedFunc(line); ok {
			t.Errorf("linkedFunc(%q) = %q, true; want no function", line, got)
		}
	}
}
