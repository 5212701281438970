package ir

import "math"

// Fingerprint is a 128-bit canonical structural hash of a function: the
// block/edge structure, φ and body instructions, operand IDs, auxiliary
// constants, block frequencies, and register pins — everything translation
// decisions depend on — and nothing they do not: variable and block names
// never enter the hash, so two functions that differ only in naming
// collide by design. Two independent 64-bit lanes make a silent collision
// between structurally different functions (which would hand a memoized
// translation to the wrong input) negligible.
type Fingerprint struct {
	Hi, Lo uint64
}

// FNV-1a offsets/primes for the first lane; the second lane runs the same
// multiply-xor scheme with independent constants (splitmix64's increment
// and one of its mix multipliers), so the lanes do not cancel together.
const (
	fpOffsetHi = 0x9e3779b97f4a7c15
	fpPrimeHi  = 0xbf58476d1ce4e5b9
	fpOffsetLo = 14695981039346656037
	fpPrimeLo  = 1099511628211
)

// fpLanes accumulates the two hash lanes.
type fpLanes struct{ hi, lo uint64 }

func newFPLanes() fpLanes { return fpLanes{hi: fpOffsetHi, lo: fpOffsetLo} }

func (h *fpLanes) word(x uint64) {
	h.hi = (h.hi ^ x) * fpPrimeHi
	h.lo = (h.lo ^ x) * fpPrimeLo
}

func (h *fpLanes) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// Fingerprint returns the function's structural hash. The result is cached
// against the generation counters, so asking again before the next
// mutation is free; any mutation recomputes it in one pass. The value is
// the wrapping sum, per lane, of a header hash and one summand per block —
// memo keys persisted by ssad -memo-file depend on that exact value
// (TestFingerprintGolden pins it).
func (f *Func) Fingerprint() Fingerprint {
	if f.fpValid && f.fpCFG == f.cfgGen && f.fpCode == f.codeGen {
		return f.fp
	}
	h := newFPLanes()
	h.word(uint64(f.NumParams))
	h.word(uint64(len(f.Vars)))
	h.word(uint64(len(f.Blocks)))
	for _, v := range f.Vars {
		// Reg pins feed precoalescing; Name and base are display-only.
		if v.Reg == "" {
			h.word(0)
		} else {
			h.str(v.Reg)
		}
	}
	fp := Fingerprint{Hi: h.hi, Lo: h.lo}
	for _, b := range f.Blocks {
		bl := blockLanes(b)
		fp.Hi += bl.hi
		fp.Lo += bl.lo
	}
	f.fp = fp
	f.fpCFG, f.fpCode = f.cfgGen, f.codeGen
	f.fpValid = true
	return fp
}

// blockLanes hashes one block's structure into a per-lane summand. The
// block's own position seeds the lanes, so the wrapping sum over blocks is
// position-sensitive.
func blockLanes(b *Block) fpLanes {
	h := newFPLanes()
	h.word(uint64(b.ID))
	h.word(math.Float64bits(b.Freq))
	h.word(uint64(len(b.Preds)))
	for _, p := range b.Preds {
		h.word(uint64(p.ID))
	}
	h.word(uint64(len(b.Succs)))
	for _, s := range b.Succs {
		h.word(uint64(s.ID))
	}
	h.word(uint64(len(b.Phis)))
	for _, in := range b.Phis {
		instrLanes(&h, in)
	}
	h.word(uint64(len(b.Instrs)))
	for _, in := range b.Instrs {
		instrLanes(&h, in)
	}
	return h
}

func instrLanes(h *fpLanes, in *Instr) {
	h.word(uint64(in.Op))
	h.word(uint64(in.Aux))
	h.word(uint64(len(in.Defs)))
	for _, d := range in.Defs {
		h.word(uint64(uint32(d)))
	}
	h.word(uint64(len(in.Uses)))
	for _, u := range in.Uses {
		h.word(uint64(uint32(u)))
	}
}
