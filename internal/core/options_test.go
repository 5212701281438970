package core

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

func mustParse(t *testing.T, src string) *ir.Func {
	t.Helper()
	f, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestOptionsValidate exercises every rejected combination and a spread of
// accepted ones.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opt     Options
		wantErr string // substring; empty = accepted
	}{
		{
			name:    "graph needs liveness sets",
			opt:     Options{UseGraph: true, LiveCheck: true},
			wantErr: "UseGraph",
		},
		{
			name:    "ordered sets are a set representation",
			opt:     Options{OrderedSets: true, LiveCheck: true},
			wantErr: "OrderedSets",
		},
		{
			name:    "SreedharIII requires virtualization",
			opt:     Options{Strategy: SreedharIII},
			wantErr: "SreedharIII",
		},
		{
			name:    "strategy past the table",
			opt:     Options{Strategy: Sharing + 1},
			wantErr: "undefined strategy",
		},
		{
			name:    "negative strategy",
			opt:     Options{Strategy: -1},
			wantErr: "undefined strategy",
		},
		{name: "zero value", opt: Options{}},
		{name: "paper recommended", opt: Options{Strategy: Value, Linear: true, LiveCheck: true}},
		{name: "baseline", opt: Options{Strategy: SreedharIII, Virtualize: true, UseGraph: true, OrderedSets: true}},
		{name: "virtualized live check", opt: Options{Strategy: Value, Virtualize: true, LiveCheck: true}},
		{name: "graph with ordered sets", opt: Options{Strategy: Chaitin, UseGraph: true, OrderedSets: true}},
		{name: "split critical edges", opt: Options{Strategy: Sharing, LiveCheck: true, SplitCriticalEdges: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() accepted invalid options %+v", tc.opt)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestTranslateRejectsInvalidOptions: the entry points refuse invalid
// option combinations before touching the function.
func TestTranslateRejectsInvalidOptions(t *testing.T) {
	if _, err := NewTranslation(nil, Options{UseGraph: true, LiveCheck: true}, nil); err == nil {
		t.Fatal("NewTranslation accepted invalid options")
	}
	if _, err := TranslateInto(nil, Options{Strategy: SreedharIII}, nil); err == nil {
		t.Fatal("TranslateInto accepted invalid options")
	}
}

// TestTranslationPhaseOrder: phases must run in order, exactly once.
func TestTranslationPhaseOrder(t *testing.T) {
	f := mustParse(t, `
func order {
entry:
  x = param 0
  ret x
}
`)
	tr, err := NewTranslation(f, Options{Strategy: Value, Linear: true, LiveCheck: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Analyze(); err == nil {
		t.Fatal("Analyze before Insert must fail")
	}
	if err := tr.Insert(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(); err == nil {
		t.Fatal("second Insert must fail")
	}
	if err := tr.Rewrite(); err == nil {
		t.Fatal("Rewrite before Analyze/Coalesce must fail")
	}
	if err := tr.Analyze(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Coalesce(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Rewrite(); err != nil {
		t.Fatal(err)
	}
}
