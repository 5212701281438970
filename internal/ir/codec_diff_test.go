package ir_test

import (
	"testing"

	"repro/internal/cfggen"
	"repro/internal/core"
	"repro/internal/ir"
)

// TestBinaryCodecMatchesJSON decodes generator functions and their
// translations under every strategy through the binary codec and through
// the version-1 JSON codec, kept as the oracle: both must rebuild the
// original field by field.
func TestBinaryCodecMatchesJSON(t *testing.T) {
	var inputs []*ir.Func
	inputs = append(inputs, cfggen.Generate(cfggen.DefaultProfile("codec", 31))...)
	inputs = append(inputs, cfggen.GenerateLarge(cfggen.LargeTranslateProfile("codec", 32, 0.1))...)
	inputs = append(inputs, cfggen.GenerateLarge(cfggen.LargeLivenessProfile("codec", 33, 0.05))[:2]...)
	var funcs []*ir.Func
	for _, f := range inputs {
		// The fields the generator never produces: a derived and a pinned
		// variable.
		f.Vars[f.NewDerivedVar(0)].Reg = "r1"
		f.NewPinnedVar("pinned", "r2")
		funcs = append(funcs, f)
		for _, s := range append(core.Strategies, core.Optimistic) {
			g := ir.Clone(f)
			opt := core.Options{Strategy: s, Virtualize: s == core.SreedharIII, Linear: true, LiveCheck: true}
			if _, err := core.Translate(g, opt); err != nil {
				t.Fatalf("%s under %s: %v", f.Name, s, err)
			}
			funcs = append(funcs, g)
		}
	}
	for _, f := range funcs {
		bin, err := ir.DecodeBinary(ir.AppendBinary(nil, f))
		if err != nil {
			t.Fatalf("%s: binary: %v", f.Name, err)
		}
		data, err := ir.EncodeJSON(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		js, err := ir.DecodeJSON(data)
		if err != nil {
			t.Fatalf("%s: JSON: %v", f.Name, err)
		}
		if d := ir.FuncDiff(bin, f); d != "" {
			t.Fatalf("%s: binary round trip: %s", f.Name, d)
		}
		if d := ir.FuncDiff(bin, js); d != "" {
			t.Fatalf("%s: binary and JSON codecs disagree: %s", f.Name, d)
		}
	}
}
