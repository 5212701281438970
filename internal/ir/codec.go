package ir

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Binary codec for Func, built for memo persistence. The textual form
// (Func.String / Parse) is not a faithful round trip for that purpose:
// Parse assigns VarIDs by first textual appearance, which can permute the
// variable universe, and Materialize's contract depends on the exact Vars
// prefix order. This codec keeps the universe verbatim — variable order,
// derivation bases, register pins — and records Preds and Succs as explicit
// index lists, so predecessor order (which fixes φ-argument matching)
// survives.
//
// The layout, every integer a uvarint unless noted:
//
//	func  = len(strs) strs name numParams
//	        nVars var*  nBlocks nEdges nInstrs nOperands block*
//	var   = name reg base            base: index+1, 0 for none
//	block = name freq                freq: float64 bits, 8 bytes little-endian
//	        nPreds pred*  nSuccs succ*  nPhis instr*  nBody instr*
//	instr = op nDefs def*  nUses use*  aux
//	                                 op: one byte; aux: zig-zag varint
//
// A name is written as its byte length; the bytes themselves follow one
// another in strs, the function's string table, in the order the names
// appear. The decoder copies strs once and cuts every name from that copy,
// so a decoded function holds no reference into its input. nEdges, nInstrs
// and nOperands total the lengths of the blocks' edge lists, instruction
// lists and the instructions' operand lists. The decoder sizes the
// function's arenas and carves those lists from one array each, so a
// function costs a fixed number of allocations whatever its size.

// AppendBinary appends the binary encoding of f to dst.
func AppendBinary(dst []byte, f *Func) []byte {
	strs, edges, instrs, operands := len(f.Name), 0, 0, 0
	for _, v := range f.Vars {
		strs += len(v.Name) + len(v.Reg)
	}
	for _, b := range f.Blocks {
		strs += len(b.Name)
		edges += len(b.Preds) + len(b.Succs)
		instrs += len(b.Phis) + len(b.Instrs)
		for _, in := range b.Phis {
			operands += len(in.Defs) + len(in.Uses)
		}
		for _, in := range b.Instrs {
			operands += len(in.Defs) + len(in.Uses)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(strs))
	dst = append(dst, f.Name...)
	for _, v := range f.Vars {
		dst = append(append(dst, v.Name...), v.Reg...)
	}
	for _, b := range f.Blocks {
		dst = append(dst, b.Name...)
	}

	dst = binary.AppendUvarint(dst, uint64(len(f.Name)))
	dst = binary.AppendUvarint(dst, uint64(f.NumParams))
	dst = binary.AppendUvarint(dst, uint64(len(f.Vars)))
	for _, v := range f.Vars {
		dst = binary.AppendUvarint(dst, uint64(len(v.Name)))
		dst = binary.AppendUvarint(dst, uint64(len(v.Reg)))
		dst = binary.AppendUvarint(dst, uint64(v.base+1))
	}
	dst = binary.AppendUvarint(dst, uint64(len(f.Blocks)))
	dst = binary.AppendUvarint(dst, uint64(edges))
	dst = binary.AppendUvarint(dst, uint64(instrs))
	dst = binary.AppendUvarint(dst, uint64(operands))
	for _, b := range f.Blocks {
		dst = binary.AppendUvarint(dst, uint64(len(b.Name)))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(b.Freq))
		dst = appendBlockList(dst, b.Preds)
		dst = appendBlockList(dst, b.Succs)
		dst = appendInstrList(dst, b.Phis)
		dst = appendInstrList(dst, b.Instrs)
	}
	return dst
}

func appendBlockList(dst []byte, bs []*Block) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bs)))
	for _, b := range bs {
		dst = binary.AppendUvarint(dst, uint64(b.ID))
	}
	return dst
}

func appendInstrList(dst []byte, ins []*Instr) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ins)))
	for _, in := range ins {
		dst = append(dst, byte(in.Op))
		dst = appendVarList(dst, in.Defs)
		dst = appendVarList(dst, in.Uses)
		dst = binary.AppendVarint(dst, in.Aux)
	}
	return dst
}

func appendVarList(dst []byte, vs []VarID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// The fewest bytes a var, a block and an instruction can take. The decoder
// rejects any count the remaining input cannot hold, so no count or length
// makes it allocate more than a fixed multiple of the bytes present.
const (
	minVarBytes   = 3
	minBlockBytes = 1 + 8 + 4
	minInstrBytes = 4
)

// DecodeBinary rebuilds a Func from AppendBinary output, which must span
// all of data. Every count is bounded by the bytes left, every index is
// bounds checked and the result must pass Verify, so a corrupted or
// hand-edited snapshot entry is rejected rather than smuggled into the
// process. The function's records come from its own arenas, and it keeps
// no reference to data.
func DecodeBinary(data []byte) (*Func, error) {
	d := decoder{buf: data}
	f := d.function()
	if d.err == nil && (len(d.buf) > 0 || len(d.strs) > 0) {
		d.err = fmt.Errorf("%d trailing bytes, %d unused string bytes", len(d.buf), len(d.strs))
	}
	if d.err == nil {
		d.err = Verify(f)
	}
	if d.err != nil {
		return nil, fmt.Errorf("ir: decode %q: %w", f.Name, d.err)
	}
	return f, nil
}

// decoder reads one encoded function. The first error sticks: later reads
// return zero values, and DecodeBinary reports the first.
type decoder struct {
	buf  []byte
	strs string // the rest of the string table
	// The rest of the function's edge, instruction and operand arrays.
	edges  []*Block
	instrs []*Instr
	ops    []VarID
	err    error
}

var (
	errTruncated = errors.New("truncated")
	errVarint    = errors.New("truncated or overlong varint")
)

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(errVarint)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf)
	if n <= 0 {
		d.fail(errVarint)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// fixed consumes the next n bytes, or returns nil.
func (d *decoder) fixed(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail(errTruncated)
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// u64 reads 8 little-endian bytes.
func (d *decoder) u64() uint64 {
	if b := d.fixed(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// op reads a one-byte opcode.
func (d *decoder) op() Op {
	b := d.fixed(1)
	if b == nil {
		return OpNop
	}
	if op := Op(b[0]); op <= OpRet {
		return op
	}
	d.fail(fmt.Errorf("bad opcode %d", b[0]))
	return OpNop
}

// count reads a list length whose elements take at least size bytes each.
func (d *decoder) count(what string, size int) int {
	n := d.uvarint()
	if n > uint64(len(d.buf)/size) {
		d.fail(fmt.Errorf("%d %ss cannot fit in the %d bytes left", n, what, len(d.buf)))
		return 0
	}
	return int(n)
}

// index reads an index that must lie in [0, n).
func (d *decoder) index(what string, n int) int {
	i := d.uvarint()
	if i >= uint64(n) {
		d.fail(fmt.Errorf("%s index %d out of range [0, %d)", what, i, n))
		return 0
	}
	return int(i)
}

// name cuts the next name from the string table.
func (d *decoder) name() string {
	n := d.uvarint()
	if n > uint64(len(d.strs)) {
		d.fail(fmt.Errorf("name of %d bytes overruns the string table", n))
		return ""
	}
	s := d.strs[:n]
	d.strs = d.strs[n:]
	return s
}

func (d *decoder) function() *Func {
	d.strs = string(d.fixed(d.count("string byte", 1)))
	f := NewFunc(d.name())
	if n := d.uvarint(); n > maxParamIndex+1 {
		d.fail(fmt.Errorf("num_params %d out of range", n))
	} else {
		f.NumParams = int(n)
	}

	f.Vars = make([]*Var, d.count("var", minVarBytes))
	f.vars.reserve(len(f.Vars))
	for i := range f.Vars {
		v := f.vars.alloc()
		v.ID, v.Name, v.Reg = VarID(i), d.name(), d.name()
		// Bases must point strictly backwards: VarName recurses through
		// base links, and a forward or self link would cycle.
		base := d.uvarint()
		if base > uint64(i) {
			d.fail(fmt.Errorf("var %d has bad base %d", i, int64(base)-1))
		}
		v.base = VarID(base) - 1
		f.Vars[i] = v
	}

	blocks := make([]Block, d.count("block", minBlockBytes))
	if len(blocks) == 0 {
		d.fail(errors.New("no blocks"))
	}
	d.edges = make([]*Block, d.count("edge", 1))
	d.instrs = make([]*Instr, d.count("instruction", minInstrBytes))
	f.instrs.reserve(len(d.instrs))
	d.ops = make([]VarID, d.count("operand", 1))
	f.Blocks = make([]*Block, len(blocks))
	for i := range blocks {
		blocks[i].ID = i
		f.Blocks[i] = &blocks[i]
	}
	for _, b := range f.Blocks {
		if d.err != nil {
			break
		}
		if b.Name = d.name(); b.Name == "" {
			b.Name = fmt.Sprintf("b%d", b.ID)
		}
		b.Freq = math.Float64frombits(d.u64())
		if math.IsNaN(b.Freq) || math.IsInf(b.Freq, 0) || b.Freq < 0 {
			d.fail(fmt.Errorf("block %s freq %v out of range", b.Name, b.Freq))
		}
		b.Preds = d.blockList(f)
		b.Succs = d.blockList(f)
		b.Phis = d.instrList(f)
		b.Instrs = d.instrList(f)
	}
	if d.err == nil && (len(d.edges) > 0 || len(d.instrs) > 0 || len(d.ops) > 0) {
		d.fail(fmt.Errorf("%d edges, %d instructions and %d operands declared but not used",
			len(d.edges), len(d.instrs), len(d.ops)))
	}
	f.MarkCFGMutated()
	return f
}

// carve reads a list length and cuts a list of that length from the front
// of *rest, one of the function's edge, instruction or operand arrays.
func carve[T any](d *decoder, rest *[]T, what string) []T {
	n := d.uvarint()
	if n > uint64(len(*rest)) {
		d.fail(fmt.Errorf("%d %ss overrun the declared total", n, what))
		return nil
	}
	if n == 0 {
		return nil
	}
	list := (*rest)[:n:n]
	*rest = (*rest)[n:]
	return list
}

func (d *decoder) blockList(f *Func) []*Block {
	list := carve(d, &d.edges, "edge")
	for i := range list {
		list[i] = f.Blocks[d.index("block", len(f.Blocks))]
	}
	return list
}

func (d *decoder) instrList(f *Func) []*Instr {
	list := carve(d, &d.instrs, "instruction")
	for i := range list {
		in := f.NewInstr(d.op())
		in.Defs = d.varList(f)
		in.Uses = d.varList(f)
		in.Aux = d.varint()
		list[i] = in
	}
	return list
}

func (d *decoder) varList(f *Func) []VarID {
	ids := carve(d, &d.ops, "operand")
	for i := range ids {
		ids[i] = VarID(d.index("var", len(f.Vars)))
	}
	return ids
}
