package ir

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"repro/internal/faults"
)

// fpParse fires once per function parsed (each Parse call, each function
// of a ParseAll stream), before the function's text is read, so a chaos
// schedule can make well-formed sources fail to load.
var fpParse = faults.Register("parse.func")

// Parse reads the textual IR form produced by Func.String. The grammar is
// line oriented:
//
//	func NAME {
//	label (freq N):          // "(freq N)" optional
//	  x = const 42
//	  x = param 0
//	  x = copy y
//	  x = add y z            // sub, mul, neg, cmplt, cmpeq
//	  x = phi b0:a b1:b      // one argument per predecessor, in pred order
//	  parcopy d1:s1 d2:s2
//	  print x
//	  jump b1
//	  br c b1 b2
//	  x = brdec c b1 b2
//	  ret x                  // operand optional
//	}
//
// Before the func header only blank lines and // comment lines may appear;
// anything else there is rejected with its line number, in Parse and in
// each ParseAll stream alike.
//
// Branch targets create the predecessor lists in the order the edges appear,
// and φ arguments are matched against that order, so blocks that are branch
// targets of several blocks receive predecessors in source order.
// Variables are numbered in order of first appearance, φ arguments after
// every other operand.
func Parse(src string) (*Func, error) {
	if err := fpParse.Inject(); err != nil {
		return nil, err
	}
	return parse(src, strings.Count(src, "\n")+1)
}

// MustParse is Parse for tests; it panics on error.
func MustParse(src string) *Func {
	f, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return f
}

// ParseAll parses a stream of functions (the output of cmd/ssagen, or
// several Func.String results concatenated). Each function is parsed from
// its own part of src, which starts at its header line, so line numbers in
// errors count from that header.
func ParseAll(src string) ([]*Func, error) {
	var funcs []*Func
	start, lines := -1, 0 // the current function's first byte and line count
	flush := func(end int, shared bool) error {
		if err := fpParse.Inject(); err != nil {
			return err
		}
		text := src[start:end]
		if shared {
			// Names are substrings of the text they were parsed from; a
			// private copy keeps one function from pinning the whole stream.
			text = strings.Clone(text)
		}
		f, err := parse(text, lines)
		if err != nil {
			return err
		}
		funcs = append(funcs, f)
		return nil
	}
	rest := src
	for ln := 1; ; ln++ {
		at := len(src) - len(rest)
		line, tail, more := strings.Cut(rest, "\n")
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "func "):
			if start >= 0 {
				if err := flush(at-1, true); err != nil {
					return nil, err
				}
			}
			start, lines = at, 0
		case start < 0:
			if l := clean(line); l != "" {
				return nil, fmt.Errorf("line %d: %w", ln, beforeHeader(l))
			}
		}
		lines++
		if !more {
			break
		}
		rest = tail
	}
	if start >= 0 {
		if err := flush(len(src), len(funcs) > 0); err != nil {
			return nil, err
		}
	}
	if len(funcs) == 0 {
		return nil, fmt.Errorf("ir: no functions found")
	}
	return funcs, nil
}

// clean strips a line's comment and surrounding white space.
func clean(line string) string {
	if i := strings.Index(line, "//"); i >= 0 {
		line = line[:i]
	}
	return strings.TrimSpace(line)
}

// beforeHeader is the error for a non-blank line before the func header.
func beforeHeader(line string) error {
	switch {
	case line == "}":
		return fmt.Errorf("%q before func header", line)
	case strings.HasSuffix(line, ":"):
		return errors.New("label before func header")
	}
	return fmt.Errorf("instruction outside block: %q", line)
}

// parse reads one function from src, which has the given number of lines;
// the count sizes the function's tables.
func parse(src string, lines int) (*Func, error) {
	p := parser{lines: lines}
	rest := src
	for ln := 1; ; ln++ {
		raw, tail, more := strings.Cut(rest, "\n")
		if line := clean(raw); line != "" {
			if err := p.line(line, ln); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln, err)
			}
		}
		if !more {
			break
		}
		rest = tail
	}
	if err := p.finish(); err != nil {
		return nil, err
	}
	return p.f, nil
}

type parser struct {
	f      *Func
	lines  int
	vars   map[string]VarID
	blocks map[string]*Block
	// defined marks, per block ID, the blocks whose label appeared; branch
	// targets create blocks eagerly (forward references), so a block left
	// undefined at the end is an undefined target.
	defined []bool
	cur     *Block

	// A block's lines are contiguous, so its φs and instructions are runs of
	// these shared lists, from *At to the end while it is current.
	body, phis    []*Instr
	bodyAt, phiAt int

	// edges holds the CFG edges as from, to pairs in source order; they are
	// linked at the end, when every block's degree is known.
	edges []*Block

	fields []string // the current line's tokens
	// φ argument resolution needs the final pred order, so φ lines are
	// resolved after the edges are linked; phiArgs holds their "pred:var"
	// tokens.
	phiArgs   []string
	phiFixups []phiFixup
}

type phiFixup struct {
	block *Block
	instr *Instr
	args  []string // "pred:var", a stretch of phiArgs later appends leave alone
	line  int
}

func (p *parser) block(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := p.f.NewBlock(name)
	p.blocks[name] = b
	p.defined = append(p.defined, false)
	return b
}

func (p *parser) v(name string) VarID {
	if id, ok := p.vars[name]; ok {
		return id
	}
	id := p.f.NewVar(name)
	p.vars[name] = id
	return id
}

// one returns a one-operand list holding the variable called name.
func (p *parser) one(name string) []VarID {
	ids := p.f.NewOperands(1)
	ids[0] = p.v(name)
	return ids
}

// list returns an operand list holding the variables called names.
func (p *parser) list(names []string) []VarID {
	ids := p.f.NewOperands(len(names))
	for i, n := range names {
		ids[i] = p.v(n)
	}
	return ids
}

// header starts the function and sizes its tables from the line count:
// every variable, block and instruction needs at least one line.
func (p *parser) header(line string) {
	name := strings.TrimSuffix(strings.TrimSpace(line[len("func "):]), "{")
	f := NewFunc(strings.TrimSpace(name))
	n := p.lines
	f.Vars = make([]*Var, 0, n)
	f.Blocks = make([]*Block, 0, n/2+1)
	p.f = f
	p.vars = make(map[string]VarID, n)
	p.blocks = make(map[string]*Block, n/2+1)
	p.defined = make([]bool, 0, n/2+1)
	p.body = make([]*Instr, 0, n)
	p.edges = make([]*Block, 0, n)
}

func (p *parser) line(line string, ln int) error {
	switch {
	case strings.HasPrefix(line, "func "):
		if p.f != nil {
			return fmt.Errorf("second %q inside function body (use ParseAll for streams)", "func")
		}
		p.header(line)
		return nil
	case p.f == nil:
		return beforeHeader(line)
	case line == "}":
		return nil
	case strings.HasSuffix(line, ":"):
		return p.label(line[:len(line)-1])
	case p.cur == nil:
		return fmt.Errorf("instruction outside block: %q", line)
	}
	return p.instr(line, ln)
}

// endBlock hands the current block its runs of the shared lists, capped so
// that a later append to one block cannot overwrite the next.
func (p *parser) endBlock() {
	if b := p.cur; b != nil {
		b.Instrs = run(p.body, p.bodyAt)
		b.Phis = run(p.phis, p.phiAt)
		p.bodyAt, p.phiAt = len(p.body), len(p.phis)
	}
}

func run(s []*Instr, from int) []*Instr {
	if from == len(s) {
		return nil
	}
	return s[from:len(s):len(s)]
}

func (p *parser) label(text string) error {
	freq := 1.0
	name := text
	if i := strings.IndexByte(text, '('); i >= 0 {
		name = strings.TrimSpace(text[:i])
		inner := strings.TrimSuffix(strings.TrimSpace(text[i+1:]), ")")
		p.fields = appendFields(p.fields[:0], inner)
		if len(p.fields) != 2 || p.fields[0] != "freq" {
			return fmt.Errorf("bad block annotation %q", inner)
		}
		v, err := strconv.ParseFloat(p.fields[1], 64)
		if err != nil {
			return fmt.Errorf("bad freq: %w", err)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("freq %v out of range", v)
		}
		freq = v
	}
	if name == "" {
		return fmt.Errorf("empty block label")
	}
	b := p.block(name)
	if p.defined[b.ID] {
		return fmt.Errorf("duplicate label %q", name)
	}
	p.defined[b.ID] = true
	p.endBlock()
	b.Freq = freq
	p.cur = b
	return nil
}

// wantDst rejects a definition without a destination, which would
// otherwise silently create an anonymous variable.
func wantDst(op, dst string) error {
	if dst == "" {
		return fmt.Errorf("op %q needs a destination (dst = %s ...)", op, op)
	}
	return nil
}

// wantArgs rejects an operand-count mismatch before args is indexed.
func wantArgs(op string, args []string, n int) error {
	if len(args) != n {
		return fmt.Errorf("op %q wants %d operand(s), got %d", op, n, len(args))
	}
	return nil
}

// arithOp returns the arithmetic opcode called name.
func arithOp(name string) (Op, bool) {
	for op := OpAdd; op <= OpCmpEQ; op++ {
		if opNames[op] == name {
			return op, true
		}
	}
	return 0, false
}

func (p *parser) instr(line string, ln int) error {
	b, f := p.cur, p.f
	var dst string
	rest := line
	if i := strings.IndexByte(line, '='); i >= 0 && !strings.Contains(line[:i], " phi") {
		dst = strings.TrimSpace(line[:i])
		rest = line[i+1:]
	}
	p.fields = appendFields(p.fields[:0], rest)
	if len(p.fields) == 0 {
		return fmt.Errorf("empty instruction")
	}
	op, args := p.fields[0], p.fields[1:]

	// Operands are resolved in source order, destination first, which
	// fixes the VarID numbering.
	var in *Instr
	switch op {
	case "const", "param":
		if err := wantDst(op, dst); err != nil {
			return err
		}
		if err := wantArgs(op, args, 1); err != nil {
			return err
		}
		if op == "const" {
			c, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil {
				return err
			}
			in = f.NewInstr(OpConst)
			in.Aux = c
		} else {
			n, err := strconv.Atoi(args[0])
			if err != nil {
				return err
			}
			if n < 0 || n > maxParamIndex {
				return fmt.Errorf("param index %d out of range [0, %d]", n, maxParamIndex)
			}
			f.NumParams = max(f.NumParams, n+1)
			in = f.NewInstr(OpParam)
			in.Aux = int64(n)
		}
		in.Defs = p.one(dst)
	case "copy":
		if err := wantDst(op, dst); err != nil {
			return err
		}
		if err := wantArgs(op, args, 1); err != nil {
			return err
		}
		in = f.NewInstr(OpCopy)
		in.Defs = p.one(dst)
		in.Uses = p.list(args)
	case "phi":
		if err := wantDst(op, dst); err != nil {
			return err
		}
		phi := f.NewInstr(OpPhi)
		phi.Defs = p.one(dst)
		p.phis = append(p.phis, phi)
		from := len(p.phiArgs)
		p.phiArgs = append(p.phiArgs, args...)
		p.phiFixups = append(p.phiFixups, phiFixup{block: b, instr: phi, args: p.phiArgs[from:], line: ln})
		return nil
	case "parcopy":
		in = f.NewInstr(OpParCopy)
		in.Defs = f.NewOperands(len(args))
		in.Uses = f.NewOperands(len(args))
		for i, a := range args {
			d, s, ok := strings.Cut(a, ":")
			if !ok {
				return fmt.Errorf("bad parcopy operand %q", a)
			}
			in.Defs[i] = p.v(d)
			in.Uses[i] = p.v(s)
		}
	case "print":
		if err := wantArgs(op, args, 1); err != nil {
			return err
		}
		in = f.NewInstr(OpPrint)
		in.Uses = p.list(args)
	case "jump":
		if err := wantArgs(op, args, 1); err != nil {
			return err
		}
		in = f.NewInstr(OpJump)
		p.edges = append(p.edges, b, p.block(args[0]))
	case "br":
		if err := wantArgs(op, args, 3); err != nil {
			return err
		}
		in = f.NewInstr(OpBranch)
		in.Uses = p.list(args[:1])
		p.edges = append(p.edges, b, p.block(args[1]), b, p.block(args[2]))
	case "brdec":
		if err := wantDst(op, dst); err != nil {
			return err
		}
		if err := wantArgs(op, args, 3); err != nil {
			return err
		}
		in = f.NewInstr(OpBrDec)
		in.Defs = p.one(dst)
		in.Uses = p.list(args[:1])
		p.edges = append(p.edges, b, p.block(args[1]), b, p.block(args[2]))
	case "ret":
		if len(args) > 1 {
			return fmt.Errorf("op %q wants at most 1 operand, got %d", op, len(args))
		}
		in = f.NewInstr(OpRet)
		in.Uses = p.list(args)
	case "nop":
		if err := wantArgs(op, args, 0); err != nil {
			return err
		}
		in = f.NewInstr(OpNop)
	default:
		aop, ok := arithOp(op)
		if !ok {
			return fmt.Errorf("unknown op %q", op)
		}
		if err := wantDst(op, dst); err != nil {
			return err
		}
		want := 2
		if aop == OpNeg {
			want = 1
		}
		if err := wantArgs(op, args, want); err != nil {
			return err
		}
		in = f.NewInstr(aop)
		in.Defs = p.one(dst)
		in.Uses = p.list(args)
	}
	p.body = append(p.body, in)
	return nil
}

// maxParamIndex bounds OpParam's Aux so hostile sources can't demand an
// absurd NumParams.
const maxParamIndex = 65535

// link creates the recorded edges in order, so every block's predecessors
// and successors keep source order, carving all the edge lists from one
// array.
func (p *parser) link() {
	blocks := p.f.Blocks
	deg := make([]int, 2*len(blocks)) // block i has deg[2i] succs, deg[2i+1] preds
	for i := 0; i < len(p.edges); i += 2 {
		deg[2*p.edges[i].ID]++
		deg[2*p.edges[i+1].ID+1]++
	}
	all := make([]*Block, len(p.edges))
	carve := func(n int) []*Block {
		if n == 0 {
			return nil
		}
		s := all[:0:n]
		all = all[n:]
		return s
	}
	for i, b := range blocks {
		b.Succs = carve(deg[2*i])
		b.Preds = carve(deg[2*i+1])
	}
	for i := 0; i < len(p.edges); i += 2 {
		AddEdge(p.edges[i], p.edges[i+1])
	}
}

// finish closes the last block, checks that every branch target was
// defined, links the edges and resolves the φ arguments.
func (p *parser) finish() error {
	p.endBlock()
	if p.f == nil {
		return fmt.Errorf("no function found")
	}
	if len(p.f.Blocks) == 0 {
		return fmt.Errorf("function %q has no blocks", p.f.Name)
	}
	var undefined []string
	for i, b := range p.f.Blocks {
		if !p.defined[i] {
			undefined = append(undefined, b.Name)
		}
	}
	if len(undefined) > 0 {
		slices.Sort(undefined)
		return fmt.Errorf("undefined block target(s): %s", strings.Join(undefined, ", "))
	}
	p.link()
	for _, fix := range p.phiFixups {
		if err := p.fixPhi(fix); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) fixPhi(fix phiFixup) error {
	in, b := fix.instr, fix.block
	in.Uses = p.f.NewOperands(len(b.Preds))
	for i := range in.Uses {
		in.Uses[i] = NoVar
	}
	for _, a := range fix.args {
		pred, arg, ok := strings.Cut(a, ":")
		if !ok {
			return fmt.Errorf("line %d: bad phi operand %q", fix.line, a)
		}
		pb, ok := p.blocks[pred]
		if !ok {
			return fmt.Errorf("line %d: unknown phi predecessor %q", fix.line, pred)
		}
		idx := b.PredIndex(pb)
		if idx < 0 {
			return fmt.Errorf("line %d: block %s is not a predecessor of %s", fix.line, pred, b.Name)
		}
		in.Uses[idx] = p.v(arg)
	}
	for i, u := range in.Uses {
		if u == NoVar {
			return fmt.Errorf("line %d: phi in %s missing argument for predecessor %s",
				fix.line, b.Name, b.Preds[i].Name)
		}
	}
	return nil
}

// appendFields appends the fields of s to dst, splitting around runs of
// white space exactly as strings.Fields does (unicode.IsSpace).
func appendFields(dst []string, s string) []string {
	start := -1 // the current field's first byte, or -1 between fields
	for i := 0; i < len(s); {
		c, n := s[i], 1
		space := c == ' ' || '\t' <= c && c <= '\r'
		if c >= utf8.RuneSelf {
			var r rune
			r, n = utf8.DecodeRuneInString(s[i:])
			space = unicode.IsSpace(r)
		}
		if space {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += n
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}
