package outofssa

import "repro/internal/faults"

// Fault injection, re-exported for the binaries (which, by CI-enforced
// convention, import only the public outofssa API). The framework itself —
// point registration, the schedule grammar, determinism guarantees — is
// documented on repro/internal/faults.

// EnableFaults arms the repo-wide failpoint schedule described by spec
// ("name=kind[:activation]", comma separated — e.g.
// "serve.decode=err:0.01,pipeline.outofssa=panic:every=500"), with all
// probabilistic activations drawn deterministically from seed. Naming an
// unregistered failpoint is an error.
func EnableFaults(spec string, seed int64) error { return faults.Enable(spec, seed) }

// FaultPoints lists every registered failpoint name, sorted.
func FaultPoints() []string { return faults.Names() }
