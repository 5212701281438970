package main

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/outofssa"
)

// The independent output check. It trusts nothing the translator reports:
// an output must be φ-free, pass the IR verifier, and behave like its
// input under the reference interpreter on a fixed set of parameter
// vectors. Checking runs outside every timed window.

// checkVectors are the parameter vectors every input/output pair is
// interpreted on; a function with more parameters than a vector holds
// cycles through it.
var checkVectors = [][]int64{{0, 0}, {3, 5}, {-4, 7}, {17, -2}}

// checkSteps bounds the interpretation of an input; its output, which
// runs the copies too, gets twice as many. The large-CFG inputs run deep
// nests of short counting loops and need up to a few million steps.
const checkSteps = 1 << 25

// errUnchecked marks an output none of whose vectors finished on the
// input within the step bound: its behaviour was not compared. It is
// counted apart from wrong outputs.
var errUnchecked = errors.New("no parameter vector finished within the step bound")

// checkOutput returns nil when out is a correct translation of in.
func checkOutput(in, out *outofssa.Func) error {
	for _, b := range out.Blocks {
		if len(b.Phis) > 0 {
			return fmt.Errorf("%s: block %s keeps %d φ-functions", out.Name, b.Name, len(b.Phis))
		}
	}
	if err := ir.Verify(out); err != nil {
		return fmt.Errorf("%s: %w", out.Name, err)
	}
	compared := 0
	for _, vec := range checkVectors {
		params := make([]int64, in.NumParams)
		for i := range params {
			params[i] = vec[i%len(vec)]
		}
		want, err := outofssa.Interpret(in, params, checkSteps)
		if err != nil {
			continue // the input itself does not finish: no verdict
		}
		got, err := outofssa.Interpret(out, params, 2*checkSteps)
		if err != nil {
			return fmt.Errorf("%s: params %v: output fails to run: %w", out.Name, params, err)
		}
		if !outofssa.Equivalent(want, got) {
			return fmt.Errorf("%s: params %v: output behaves differently from its input", out.Name, params)
		}
		compared++
	}
	if compared == 0 {
		return fmt.Errorf("%s: %w", out.Name, errUnchecked)
	}
	return nil
}

// checkTally counts verdicts over a workload's distinct outputs.
type checkTally struct {
	checked   int
	wrong     int
	unchecked int   // φ-free and verified, but no vector finished on the input
	first     error // the first wrong output, for the report
}

func (t *checkTally) add(in, out *outofssa.Func) {
	t.checked++
	switch err := checkOutput(in, out); {
	case errors.Is(err, errUnchecked):
		t.unchecked++
	case err != nil:
		t.wrong++
		if t.first == nil {
			t.first = err
		}
	}
}

// addText checks a served output against the request's source, parsing
// both from text, so the check sees exactly what a client sent and
// received.
func (t *checkTally) addText(src, out string) {
	in, err := outofssa.Parse(src)
	if err == nil {
		var f *outofssa.Func
		if f, err = outofssa.Parse(out); err == nil {
			t.add(in, f)
			return
		}
	}
	t.checked++
	t.wrong++
	if t.first == nil {
		t.first = fmt.Errorf("served output does not parse: %w", err)
	}
}
