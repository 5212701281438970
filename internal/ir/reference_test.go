package ir

// The reference parser and printer: the straightforward split-and-Sprintf
// implementations the production ones replaced, kept as test oracles. The
// differential tests hold Parse, ParseAll and Func.String to them. The only
// change from the originals is the pre-header rule (a stream may hold only
// blank and comment lines before its first header), which both parsers
// share.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

func refParse(src string) (*Func, error) {
	p := &refParser{
		vars:    map[string]VarID{},
		blocks:  map[string]*Block{},
		defined: map[string]bool{},
	}
	if err := p.run(src); err != nil {
		return nil, err
	}
	return p.f, nil
}

func refParseAll(src string) ([]*Func, error) {
	var funcs []*Func
	var cur []string
	flush := func() error {
		hasFunc := false
		for _, l := range cur {
			if strings.HasPrefix(strings.TrimSpace(l), "func ") {
				hasFunc = true
				break
			}
		}
		if !hasFunc {
			// The lines before the first header: Parse rejects anything
			// but blanks and comments there.
			if _, err := refParse(strings.Join(cur, "\n")); err != nil && err.Error() != "no function found" {
				return err
			}
			cur = nil
			return nil
		}
		f, err := refParse(strings.Join(cur, "\n"))
		if err != nil {
			return err
		}
		funcs = append(funcs, f)
		cur = nil
		return nil
	}
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "func ") {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		cur = append(cur, line)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(funcs) == 0 {
		return nil, fmt.Errorf("ir: no functions found")
	}
	return funcs, nil
}

type refParser struct {
	f       *Func
	vars    map[string]VarID
	blocks  map[string]*Block
	defined map[string]bool
	cur     *Block

	phiFixups []refPhiFixup
}

type refPhiFixup struct {
	block *Block
	instr *Instr
	args  []string // "pred:var"
	line  int
}

func (p *refParser) block(name string) *Block {
	if b, ok := p.blocks[name]; ok {
		return b
	}
	b := p.f.NewBlock(name)
	p.blocks[name] = b
	return b
}

func (p *refParser) v(name string) VarID {
	if id, ok := p.vars[name]; ok {
		return id
	}
	id := p.f.NewVar(name)
	p.vars[name] = id
	return id
}

func (p *refParser) run(src string) error {
	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := p.line(line, ln+1); err != nil {
			return fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	if p.f == nil {
		return fmt.Errorf("no function found")
	}
	if len(p.f.Blocks) == 0 {
		return fmt.Errorf("function %q has no blocks", p.f.Name)
	}
	var undefined []string
	for name := range p.blocks {
		if !p.defined[name] {
			undefined = append(undefined, name)
		}
	}
	if len(undefined) > 0 {
		sort.Strings(undefined)
		return fmt.Errorf("undefined block target(s): %s", strings.Join(undefined, ", "))
	}
	for _, fix := range p.phiFixups {
		if err := p.fixPhi(fix); err != nil {
			return err
		}
	}
	return nil
}

func (p *refParser) line(line string, ln int) error {
	switch {
	case strings.HasPrefix(line, "func "):
		if p.f != nil {
			return fmt.Errorf("second %q inside function body (use ParseAll for streams)", "func")
		}
		name := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), "{")
		p.f = NewFunc(strings.TrimSpace(name))
		return nil
	case line == "}":
		if p.f == nil {
			return fmt.Errorf("%q before func header", line)
		}
		return nil
	case strings.HasSuffix(line, ":"):
		if p.f == nil {
			return fmt.Errorf("label before func header")
		}
		return p.label(strings.TrimSuffix(line, ":"))
	}
	if p.cur == nil {
		return fmt.Errorf("instruction outside block: %q", line)
	}
	return p.instr(line, ln)
}

func (p *refParser) label(text string) error {
	freq := 1.0
	name := text
	if i := strings.Index(text, "("); i >= 0 {
		name = strings.TrimSpace(text[:i])
		inner := strings.TrimSuffix(strings.TrimSpace(text[i+1:]), ")")
		fields := strings.Fields(inner)
		if len(fields) != 2 || fields[0] != "freq" {
			return fmt.Errorf("bad block annotation %q", inner)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
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
	if p.defined[name] {
		return fmt.Errorf("duplicate label %q", name)
	}
	p.defined[name] = true
	b := p.block(name)
	b.Freq = freq
	p.cur = b
	return nil
}

var refArithOps = map[string]Op{
	"add": OpAdd, "sub": OpSub, "mul": OpMul, "neg": OpNeg,
	"cmplt": OpCmpLT, "cmpeq": OpCmpEQ,
}

func (p *refParser) instr(line string, ln int) error {
	b := p.cur
	var dst string
	rest := line
	if i := strings.Index(line, "="); i >= 0 && !strings.Contains(line[:i], " phi") {
		dst = strings.TrimSpace(line[:i])
		rest = strings.TrimSpace(line[i+1:])
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return fmt.Errorf("empty instruction")
	}
	op, args := fields[0], fields[1:]

	emit := func(in *Instr) { b.Instrs = append(b.Instrs, in) }
	arity := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("op %q wants %d operand(s), got %d", op, n, len(args))
		}
		return nil
	}
	def := func() error {
		if dst == "" {
			return fmt.Errorf("op %q needs a destination (dst = %s ...)", op, op)
		}
		return nil
	}

	switch op {
	case "const":
		if err := def(); err != nil {
			return err
		}
		if err := arity(1); err != nil {
			return err
		}
		c, err := strconv.ParseInt(args[0], 10, 64)
		if err != nil {
			return err
		}
		emit(&Instr{Op: OpConst, Defs: []VarID{p.v(dst)}, Aux: c})
	case "param":
		if err := def(); err != nil {
			return err
		}
		if err := arity(1); err != nil {
			return err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		if n < 0 || n > maxParamIndex {
			return fmt.Errorf("param index %d out of range [0, %d]", n, maxParamIndex)
		}
		if n+1 > p.f.NumParams {
			p.f.NumParams = n + 1
		}
		emit(&Instr{Op: OpParam, Defs: []VarID{p.v(dst)}, Aux: int64(n)})
	case "copy":
		if err := def(); err != nil {
			return err
		}
		if err := arity(1); err != nil {
			return err
		}
		emit(&Instr{Op: OpCopy, Defs: []VarID{p.v(dst)}, Uses: []VarID{p.v(args[0])}})
	case "phi":
		if err := def(); err != nil {
			return err
		}
		in := &Instr{Op: OpPhi, Defs: []VarID{p.v(dst)}}
		b.Phis = append(b.Phis, in)
		p.phiFixups = append(p.phiFixups, refPhiFixup{block: b, instr: in, args: args, line: ln})
	case "parcopy":
		in := &Instr{Op: OpParCopy}
		for _, a := range args {
			parts := strings.SplitN(a, ":", 2)
			if len(parts) != 2 {
				return fmt.Errorf("bad parcopy operand %q", a)
			}
			in.Defs = append(in.Defs, p.v(parts[0]))
			in.Uses = append(in.Uses, p.v(parts[1]))
		}
		emit(in)
	case "print":
		if err := arity(1); err != nil {
			return err
		}
		emit(&Instr{Op: OpPrint, Uses: []VarID{p.v(args[0])}})
	case "jump":
		if err := arity(1); err != nil {
			return err
		}
		emit(&Instr{Op: OpJump})
		AddEdge(b, p.block(args[0]))
	case "br":
		if err := arity(3); err != nil {
			return err
		}
		emit(&Instr{Op: OpBranch, Uses: []VarID{p.v(args[0])}})
		AddEdge(b, p.block(args[1]))
		AddEdge(b, p.block(args[2]))
	case "brdec":
		if err := def(); err != nil {
			return err
		}
		if err := arity(3); err != nil {
			return err
		}
		emit(&Instr{Op: OpBrDec, Defs: []VarID{p.v(dst)}, Uses: []VarID{p.v(args[0])}})
		AddEdge(b, p.block(args[1]))
		AddEdge(b, p.block(args[2]))
	case "ret":
		if len(args) > 1 {
			return fmt.Errorf("op %q wants at most 1 operand, got %d", op, len(args))
		}
		in := &Instr{Op: OpRet}
		if len(args) == 1 {
			in.Uses = []VarID{p.v(args[0])}
		}
		emit(in)
	case "nop":
		if err := arity(0); err != nil {
			return err
		}
		emit(&Instr{Op: OpNop})
	default:
		aop, ok := refArithOps[op]
		if !ok {
			return fmt.Errorf("unknown op %q", op)
		}
		if err := def(); err != nil {
			return err
		}
		want := 2
		if aop == OpNeg {
			want = 1
		}
		if err := arity(want); err != nil {
			return err
		}
		in := &Instr{Op: aop, Defs: []VarID{p.v(dst)}}
		for _, a := range args {
			in.Uses = append(in.Uses, p.v(a))
		}
		emit(in)
	}
	return nil
}

func (p *refParser) fixPhi(fix refPhiFixup) error {
	in := fix.instr
	in.Uses = make([]VarID, len(fix.block.Preds))
	for i := range in.Uses {
		in.Uses[i] = NoVar
	}
	for _, a := range fix.args {
		parts := strings.SplitN(a, ":", 2)
		if len(parts) != 2 {
			return fmt.Errorf("line %d: bad phi operand %q", fix.line, a)
		}
		pred, ok := p.blocks[parts[0]]
		if !ok {
			return fmt.Errorf("line %d: unknown phi predecessor %q", fix.line, parts[0])
		}
		idx := fix.block.PredIndex(pred)
		if idx < 0 {
			return fmt.Errorf("line %d: block %s is not a predecessor of %s", fix.line, parts[0], fix.block.Name)
		}
		in.Uses[idx] = p.v(parts[1])
	}
	for i, u := range in.Uses {
		if u == NoVar {
			return fmt.Errorf("line %d: phi in %s missing argument for predecessor %s",
				fix.line, fix.block.Name, fix.block.Preds[i].Name)
		}
	}
	return nil
}

// refString renders f with the reference printer: every variable under
// VarName, every block under its Name, duplicates included.
func refString(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s {\n", f.Name)
	for _, blk := range f.Blocks {
		if blk.Freq != 1 {
			fmt.Fprintf(&b, "%s (freq %g):\n", blk.Name, blk.Freq)
		} else {
			fmt.Fprintf(&b, "%s:\n", blk.Name)
		}
		for _, in := range blk.Phis {
			fmt.Fprintf(&b, "  %s\n", refInstrString(f, blk, in))
		}
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", refInstrString(f, blk, in))
		}
	}
	b.WriteString("}\n")
	return b.String()
}

func refInstrString(f *Func, blk *Block, in *Instr) string {
	name := func(v VarID) string { return f.VarName(v) }
	switch in.Op {
	case OpConst:
		return fmt.Sprintf("%s = const %d", name(in.Defs[0]), in.Aux)
	case OpParam:
		return fmt.Sprintf("%s = param %d", name(in.Defs[0]), in.Aux)
	case OpCopy:
		return fmt.Sprintf("%s = copy %s", name(in.Defs[0]), name(in.Uses[0]))
	case OpPhi:
		parts := make([]string, len(in.Uses))
		for i, u := range in.Uses {
			pred := "?"
			if i < len(blk.Preds) {
				pred = blk.Preds[i].Name
			}
			parts[i] = fmt.Sprintf("%s:%s", pred, name(u))
		}
		return fmt.Sprintf("%s = phi %s", name(in.Defs[0]), strings.Join(parts, " "))
	case OpParCopy:
		parts := make([]string, len(in.Defs))
		for i := range in.Defs {
			parts[i] = fmt.Sprintf("%s:%s", name(in.Defs[i]), name(in.Uses[i]))
		}
		return "parcopy " + strings.Join(parts, " ")
	case OpPrint:
		return fmt.Sprintf("print %s", name(in.Uses[0]))
	case OpJump:
		return fmt.Sprintf("jump %s", blk.Succs[0].Name)
	case OpBranch:
		return fmt.Sprintf("br %s %s %s", name(in.Uses[0]), blk.Succs[0].Name, blk.Succs[1].Name)
	case OpBrDec:
		return fmt.Sprintf("%s = brdec %s %s %s", name(in.Defs[0]), name(in.Uses[0]), blk.Succs[0].Name, blk.Succs[1].Name)
	case OpRet:
		if len(in.Uses) == 1 {
			return fmt.Sprintf("ret %s", name(in.Uses[0]))
		}
		return "ret"
	case OpNop:
		return "nop"
	default: // arithmetic
		ops := make([]string, len(in.Uses))
		for i, u := range in.Uses {
			ops[i] = name(u)
		}
		return fmt.Sprintf("%s = %s %s", name(in.Defs[0]), in.Op, strings.Join(ops, " "))
	}
}
