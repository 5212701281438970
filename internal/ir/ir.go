// Package ir defines the intermediate representation used by the out-of-SSA
// translator: a control-flow graph of basic blocks holding three-address
// instructions, φ-functions with parallel-copy semantics, explicit parallel
// copy instructions, and the DSP-style branch-with-decrement terminator
// (Br_dec) that the paper uses to show that copy insertion alone cannot
// always translate out of SSA (Figure 2).
//
// The representation is deliberately simple: variables are indices into a
// per-function universe, instructions carry explicit def and use lists, and
// φ-function arguments are positionally matched with block predecessors.
package ir

import (
	"fmt"
	"strconv"
)

// VarID identifies a variable within a Func. NoVar marks an absent variable.
type VarID int32

// NoVar is the invalid variable ID.
const NoVar VarID = -1

// Var is a program variable. In SSA form each Var has exactly one defining
// instruction. Reg, when non-empty, pins the variable to an architectural
// register (calling conventions, dedicated registers); pinned variables are
// handled as described in Section III-D of the paper.
//
// Name may be empty: VarName then synthesizes a printable name on demand —
// "v<id>" for plain variables, the base's name plus a prime for variables
// created with NewDerivedVar. Deferring the string keeps the translation
// hot path free of per-variable string allocations.
type Var struct {
	ID   VarID
	Name string
	Reg  string

	// base, when not NoVar, is the variable this one was derived from
	// (NewDerivedVar); its display name is the base's name primed.
	base VarID
}

// Op is an instruction opcode.
type Op uint8

// Opcodes. OpJump..OpRet are terminators and must appear last in a block.
const (
	OpNop Op = iota
	OpConst
	OpParam
	OpCopy
	OpAdd
	OpSub
	OpMul
	OpNeg
	OpCmpLT
	OpCmpEQ
	OpPhi
	OpParCopy
	OpPrint
	OpJump
	OpBranch
	OpBrDec
	OpRet
)

var opNames = [...]string{
	OpNop:     "nop",
	OpConst:   "const",
	OpParam:   "param",
	OpCopy:    "copy",
	OpAdd:     "add",
	OpSub:     "sub",
	OpMul:     "mul",
	OpNeg:     "neg",
	OpCmpLT:   "cmplt",
	OpCmpEQ:   "cmpeq",
	OpPhi:     "phi",
	OpParCopy: "parcopy",
	OpPrint:   "print",
	OpJump:    "jump",
	OpBranch:  "br",
	OpBrDec:   "brdec",
	OpRet:     "ret",
}

func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool { return op >= OpJump }

// DefinesAfterCopyPoint reports whether the terminator defines a variable
// after the pre-terminator copy-insertion point. Only Br_dec does: its
// decremented counter is written by the branch itself, so no copy can be
// placed between that definition and the block's outgoing edges (paper,
// Figure 2).
func (op Op) DefinesAfterCopyPoint() bool { return op == OpBrDec }

// Instr is a single instruction. Defs and Uses are variable operand lists:
//
//   - OpConst: Defs[0] = Aux (an integer literal)
//   - OpParam: Defs[0] = function input number Aux
//   - OpCopy: Defs[0] = Uses[0]
//   - arithmetic ops: Defs[0] = op(Uses...)
//   - OpPhi: Defs[0] = φ(Uses...), Uses[i] flowing from Block.Preds[i]
//   - OpParCopy: Defs[i] = Uses[i], all reads before all writes
//   - OpPrint: observable output of Uses[0]
//   - OpJump: to Succs[0]
//   - OpBranch: Uses[0] != 0 → Succs[0], else Succs[1]
//   - OpBrDec: Defs[0] = Uses[0]-1, then Defs[0] != 0 → Succs[0] else Succs[1]
//   - OpRet: returns Uses[0] if present
type Instr struct {
	Op   Op
	Defs []VarID
	Uses []VarID
	Aux  int64
}

// Def returns the single definition of the instruction, or NoVar.
func (in *Instr) Def() VarID {
	if len(in.Defs) == 1 {
		return in.Defs[0]
	}
	return NoVar
}

// IsCopyOf reports whether in copies src into dst (either a plain copy or a
// parallel-copy component).
func (in *Instr) IsCopyOf(dst, src VarID) bool {
	switch in.Op {
	case OpCopy:
		return in.Defs[0] == dst && in.Uses[0] == src
	case OpParCopy:
		for i, d := range in.Defs {
			if d == dst && in.Uses[i] == src {
				return true
			}
		}
	}
	return false
}

// Block is a basic block. Phis hold the φ-functions (conceptually executed
// in parallel at block entry); Instrs holds the ordinary instructions, the
// last of which must be a terminator. Freq is the estimated execution
// frequency used as the coalescing affinity weight.
type Block struct {
	ID     int
	Name   string
	Preds  []*Block
	Succs  []*Block
	Phis   []*Instr
	Instrs []*Instr
	Freq   float64
}

// Terminator returns the block's final instruction, or nil if absent.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// PredIndex returns the position of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// NumPoints returns the number of instruction slots in the block
// (φ-functions count as a single parallel slot 0 when present).
func (b *Block) NumPoints() int { return len(b.Phis) + len(b.Instrs) }

// Func is a function: a variable universe plus a CFG. Blocks[0] is the
// entry block. Block IDs always equal their index in Blocks.
//
// Two monotonic generation counters track mutation so analyses can be
// cached and invalidated precisely (the pass-manager protocol in
// internal/analysis): cfgGen advances whenever the block/edge structure
// changes, codeGen whenever instructions or the variable universe change.
// A CFG mutation advances both — renumbering blocks invalidates every
// instruction-level index too. The ir mutators below bump the counters
// themselves; code that edits Blocks/Instrs/Defs/Uses slices directly must
// call MarkCFGMutated or MarkCodeMutated to keep cached analyses honest.
type Func struct {
	Name      string
	Blocks    []*Block
	Vars      []*Var
	NumParams int

	cfgGen  uint64
	codeGen uint64

	// Cached structural fingerprint (see fingerprint.go), valid while both
	// generations still match fpCFG/fpCode.
	fp            Fingerprint
	fpCFG, fpCode uint64
	fpValid       bool

	// Chunked arenas backing the function's Instr/Var records and small
	// operand slices (see slab.go). Their memory lives as long as the
	// function and is rewound by CloneInto.
	instrs instrArena
	vars   varArena
	ids    idArena

	// spareBlocks recycles Block records detached by CleanupJumpBlocks or
	// left over by CloneInto, so edge splitting and re-cloning reuse their
	// records and edge/instruction slice backing.
	spareBlocks []*Block
}

// CFGGen returns the generation of the block/edge structure.
func (f *Func) CFGGen() uint64 { return f.cfgGen }

// CodeGen returns the generation of the instruction/variable contents.
func (f *Func) CodeGen() uint64 { return f.codeGen }

// MarkCFGMutated records a change to the block/edge structure. It also
// advances the code generation: block removal or renumbering invalidates
// instruction-level analyses such as def-use and liveness.
func (f *Func) MarkCFGMutated() {
	f.cfgGen++
	f.codeGen++
}

// MarkCodeMutated records a change to instructions or variables that left
// the block/edge structure intact (dominance stays valid, def-use and
// liveness do not).
func (f *Func) MarkCodeMutated() { f.codeGen++ }

// NewFunc returns an empty function.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewVar adds a fresh variable with the given name to the universe. An
// empty name is kept empty and synthesized lazily by VarName ("v<id>"), so
// minting anonymous variables performs no string allocation.
func (f *Func) NewVar(name string) VarID {
	id := VarID(len(f.Vars))
	v := f.vars.alloc()
	*v = Var{ID: id, Name: name, base: NoVar}
	f.Vars = append(f.Vars, v)
	f.MarkCodeMutated()
	return id
}

// NewDerivedVar adds a fresh variable derived from base — the primed
// variables a' of copy insertion. The display name is the base's name plus
// a prime, synthesized only when asked for, so materializing copies does
// not allocate name strings.
func (f *Func) NewDerivedVar(base VarID) VarID {
	id := f.NewVar("")
	f.Vars[id].base = base
	return id
}

// NewPinnedVar adds a fresh variable pinned to architectural register reg.
func (f *Func) NewPinnedVar(name, reg string) VarID {
	id := f.NewVar(name)
	f.Vars[id].Reg = reg
	return id
}

// VarName returns a printable name for v, synthesizing one when the record
// carries no explicit name: "v<id>" for plain variables, the base's name
// primed for derived variables.
func (f *Func) VarName(v VarID) string {
	if v == NoVar {
		return "_"
	}
	if name := f.Vars[v].Name; name != "" {
		return name
	}
	return string(f.appendVarName(nil, v))
}

// appendVarName appends VarName(v) to dst; v must not be NoVar.
func (f *Func) appendVarName(dst []byte, v VarID) []byte {
	primes := 0
	for f.Vars[v].Name == "" && f.Vars[v].base != NoVar {
		v = f.Vars[v].base
		primes++
	}
	if name := f.Vars[v].Name; name != "" {
		dst = append(dst, name...)
	} else {
		dst = append(dst, 'v')
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	for ; primes > 0; primes-- {
		dst = append(dst, '\'')
	}
	return dst
}

// NewBlock appends a fresh block with frequency 1, reusing a recycled
// block record (and its slice backing) when one is available.
func (f *Func) NewBlock(name string) *Block {
	b := f.takeBlock()
	b.ID, b.Name, b.Freq = len(f.Blocks), name, 1
	if name == "" {
		b.Name = fmt.Sprintf("b%d", b.ID)
	}
	f.Blocks = append(f.Blocks, b)
	f.MarkCFGMutated()
	return b
}

// takeBlock returns a cleared block record from the spare list, or a fresh
// one. The record's slices are truncated, keeping their backing.
func (f *Func) takeBlock() *Block {
	n := len(f.spareBlocks)
	if n == 0 {
		return &Block{}
	}
	b := f.spareBlocks[n-1]
	f.spareBlocks = f.spareBlocks[:n-1]
	b.Preds = b.Preds[:0]
	b.Succs = b.Succs[:0]
	b.Phis = b.Phis[:0]
	b.Instrs = b.Instrs[:0]
	return b
}

// retireBlock hands a detached block record to the spare list for reuse.
// The caller must ensure nothing references it anymore.
func (f *Func) retireBlock(b *Block) { f.spareBlocks = append(f.spareBlocks, b) }

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// AddEdge records a control-flow edge from → to, keeping Preds/Succs
// consistent. The successor order of a block matches the operand order of
// its terminator (taken target first for branches).
func AddEdge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// NumInstrs returns the total instruction count of the function, φs included.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Phis) + len(b.Instrs)
	}
	return n
}
