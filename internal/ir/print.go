package ir

import (
	"strconv"
)

// String renders the function in the textual form accepted by Parse.
//
// Every variable and every block that appears is printed under a distinct
// name, so the text parses back to the same program. Among the variables
// (and, separately, the blocks) that share a name, the lowest-numbered
// keeps it; each later one gets the first suffix ".1", ".2", … that no
// other printed name uses. Names are decided here rather than when
// variables and blocks are created because a memoized translation carries
// the stored function's minted names next to the request's own: a clash
// can first appear when the two meet.
//
// String does not modify f, so concurrent calls are safe.
func (f *Func) String() string {
	vars := f.printedVarNames()
	blocks := make([]string, len(f.Blocks))
	for i, b := range f.Blocks {
		blocks[i] = b.Name
	}
	distinct(blocks)
	label := func(b *Block) string {
		if b.ID < len(f.Blocks) && f.Blocks[b.ID] == b {
			return blocks[b.ID]
		}
		return b.Name
	}
	name := func(out []byte, v VarID) []byte {
		if v == NoVar {
			return append(out, '_')
		}
		return append(out, vars[v]...)
	}

	out := make([]byte, 0, 32*f.NumInstrs()+24*len(f.Blocks)+len(f.Name)+16)
	out = append(out, "func "...)
	out = append(out, f.Name...)
	out = append(out, " {\n"...)
	for i, blk := range f.Blocks {
		out = append(out, blocks[i]...)
		if blk.Freq != 1 {
			out = append(out, " (freq "...)
			out = strconv.AppendFloat(out, blk.Freq, 'g', -1, 64)
			out = append(out, ')')
		}
		out = append(out, ":\n"...)
		for _, list := range [2][]*Instr{blk.Phis, blk.Instrs} {
			for _, in := range list {
				out = append(out, "  "...)
				switch in.Op {
				case OpConst, OpParam:
					out = name(out, in.Defs[0])
					out = append(out, " = "...)
					out = append(out, in.Op.String()...)
					out = append(out, ' ')
					out = strconv.AppendInt(out, in.Aux, 10)
				case OpPhi:
					out = name(out, in.Defs[0])
					out = append(out, " = phi"...)
					for i, u := range in.Uses {
						out = append(out, ' ')
						if i < len(blk.Preds) {
							out = append(out, label(blk.Preds[i])...)
						} else {
							out = append(out, '?')
						}
						out = append(out, ':')
						out = name(out, u)
					}
					if len(in.Uses) == 0 {
						out = append(out, ' ')
					}
				case OpParCopy:
					out = append(out, "parcopy"...)
					for i, d := range in.Defs {
						out = append(out, ' ')
						out = name(out, d)
						out = append(out, ':')
						out = name(out, in.Uses[i])
					}
					if len(in.Defs) == 0 {
						out = append(out, ' ')
					}
				case OpPrint:
					out = append(out, "print "...)
					out = name(out, in.Uses[0])
				case OpJump:
					out = append(out, "jump "...)
					out = append(out, label(blk.Succs[0])...)
				case OpBranch, OpBrDec:
					if in.Op == OpBrDec {
						out = name(out, in.Defs[0])
						out = append(out, " = "...)
					}
					out = append(out, in.Op.String()...)
					out = append(out, ' ')
					out = name(out, in.Uses[0])
					out = append(out, ' ')
					out = append(out, label(blk.Succs[0])...)
					out = append(out, ' ')
					out = append(out, label(blk.Succs[1])...)
				case OpRet:
					out = append(out, "ret"...)
					if len(in.Uses) == 1 {
						out = append(out, ' ')
						out = name(out, in.Uses[0])
					}
				case OpNop:
					out = append(out, "nop"...)
				default: // copy and arithmetic
					out = name(out, in.Defs[0])
					out = append(out, " = "...)
					out = append(out, in.Op.String()...)
					for _, u := range in.Uses {
						out = append(out, ' ')
						out = name(out, u)
					}
					if len(in.Uses) == 0 {
						out = append(out, ' ')
					}
				}
				out = append(out, '\n')
			}
		}
	}
	out = append(out, "}\n"...)
	return string(out)
}

// printedVarNames returns, indexed by VarID, the distinct printed name of
// every variable that appears in an instruction, and "" for the rest.
func (f *Func) printedVarNames() []string {
	// end[v] is -1 once v is seen to appear, then the end of its name in
	// buf; the names are rendered in VarID order, back to back.
	end := make([]int32, len(f.Vars))
	mark := func(vs []VarID) {
		for _, v := range vs {
			if v != NoVar {
				end[v] = -1
			}
		}
	}
	for _, b := range f.Blocks {
		for _, list := range [2][]*Instr{b.Phis, b.Instrs} {
			for _, in := range list {
				mark(in.Defs)
				mark(in.Uses)
			}
		}
	}
	buf := make([]byte, 0, 8*len(f.Vars))
	for v, e := range end {
		if e != 0 {
			buf = f.appendVarName(buf, VarID(v))
			end[v] = int32(len(buf))
		}
	}
	all := string(buf)
	names := make([]string, len(f.Vars))
	start := int32(0)
	for v, e := range end {
		if e != 0 {
			names[v] = all[start:e]
			start = e
		}
	}
	distinct(names)
	return names
}

// distinct renames, in place, every non-empty entry of names that repeats
// one at a lower index: the lowest index keeps the name, and each later
// one gets the first suffix ".1", ".2", … that no entry uses.
func distinct(names []string) {
	owner := make(map[string]int, len(names))
	clash := false
	for i, n := range names {
		if n == "" {
			continue
		}
		if _, ok := owner[n]; ok {
			clash = true
			continue
		}
		owner[n] = i
	}
	if !clash {
		return
	}
	next := map[string]int{} // the last suffix tried per repeated name
	for i, n := range names {
		if n == "" || owner[n] == i {
			continue
		}
		k := next[n]
		for {
			k++
			cand := n + "." + strconv.Itoa(k)
			if _, ok := owner[cand]; !ok {
				owner[cand] = i
				names[i] = cand
				break
			}
		}
		next[n] = k
	}
}
