package ir

import "fmt"

// Verify checks the structural integrity of the CFG: block IDs match
// indices, edges are symmetric, every reachable block ends in a terminator,
// every φ has one destination and one argument per predecessor and sits
// outside the entry block (entered first along no edge, so a φ there has
// no argument to select), terminators appear only in final position,
// operand lists have the arities their opcodes demand, and every operand
// names a variable of the function.
func Verify(f *Func) error {
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("block %s: ID %d != index %d", b.Name, b.ID, i)
		}
		for _, s := range b.Succs {
			if s.PredIndex(b) < 0 {
				return fmt.Errorf("edge %s->%s not recorded in preds", b.Name, s.Name)
			}
		}
		for _, p := range b.Preds {
			found := false
			for _, s := range p.Succs {
				if s == b {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("pred edge %s->%s not recorded in succs", p.Name, b.Name)
			}
		}
		t := b.Terminator()
		if t == nil {
			return fmt.Errorf("block %s: missing terminator", b.Name)
		}
		for j, in := range b.Instrs {
			if in.Op.IsTerminator() && j != len(b.Instrs)-1 {
				return fmt.Errorf("block %s: terminator %s at non-final position %d", b.Name, in.Op, j)
			}
			if in.Op == OpPhi {
				return fmt.Errorf("block %s: phi in instruction body", b.Name)
			}
			if err := checkArity(f, b, in); err != nil {
				return err
			}
		}
		if i == 0 && len(b.Phis) > 0 {
			return fmt.Errorf("block %s: φ in entry block", b.Name)
		}
		for _, in := range b.Phis {
			if in.Op != OpPhi {
				return fmt.Errorf("block %s: non-phi %s in phi list", b.Name, in.Op)
			}
			if len(in.Defs) != 1 {
				return fmt.Errorf("block %s: phi has %d defs", b.Name, len(in.Defs))
			}
			if err := checkOperands(f, b, in); err != nil {
				return err
			}
			if len(in.Uses) != len(b.Preds) {
				return fmt.Errorf("block %s: phi of %s has %d args for %d preds",
					b.Name, f.VarName(in.Defs[0]), len(in.Uses), len(b.Preds))
			}
		}
		switch t.Op {
		case OpJump:
			if len(b.Succs) != 1 {
				return fmt.Errorf("block %s: jump with %d successors", b.Name, len(b.Succs))
			}
		case OpBranch, OpBrDec:
			if len(b.Succs) != 2 {
				return fmt.Errorf("block %s: branch with %d successors", b.Name, len(b.Succs))
			}
		case OpRet:
			if len(b.Succs) != 0 {
				return fmt.Errorf("block %s: ret with successors", b.Name)
			}
		}
	}
	return nil
}

// checkOperands rejects definitions and uses that name no variable of f.
func checkOperands(f *Func, b *Block, in *Instr) error {
	for _, v := range in.Defs {
		if int(v) < 0 || int(v) >= len(f.Vars) {
			return fmt.Errorf("block %s: def of unknown variable %d", b.Name, v)
		}
	}
	for _, v := range in.Uses {
		if int(v) < 0 || int(v) >= len(f.Vars) {
			return fmt.Errorf("block %s: use of unknown variable %d", b.Name, v)
		}
	}
	return nil
}

func checkArity(f *Func, b *Block, in *Instr) error {
	bad := func() error {
		return fmt.Errorf("block %s: %s has %d defs / %d uses", b.Name, in.Op, len(in.Defs), len(in.Uses))
	}
	if err := checkOperands(f, b, in); err != nil {
		return err
	}
	switch in.Op {
	case OpConst, OpParam:
		if len(in.Defs) != 1 || len(in.Uses) != 0 {
			return bad()
		}
	case OpCopy, OpNeg, OpPrint:
		want := 1
		if in.Op == OpPrint {
			want = 0
		}
		if len(in.Defs) != want || len(in.Uses) != 1 {
			return bad()
		}
	case OpAdd, OpSub, OpMul, OpCmpLT, OpCmpEQ:
		if len(in.Defs) != 1 || len(in.Uses) != 2 {
			return bad()
		}
	case OpParCopy:
		if len(in.Defs) != len(in.Uses) {
			return bad()
		}
		seen := map[VarID]bool{}
		for _, d := range in.Defs {
			if seen[d] {
				return fmt.Errorf("block %s: parallel copy defines %s twice", b.Name, f.VarName(d))
			}
			seen[d] = true
		}
	case OpJump, OpNop:
		if len(in.Defs) != 0 || len(in.Uses) != 0 {
			return bad()
		}
	case OpBranch:
		if len(in.Defs) != 0 || len(in.Uses) != 1 {
			return bad()
		}
	case OpBrDec:
		if len(in.Defs) != 1 || len(in.Uses) != 1 {
			return bad()
		}
	case OpRet:
		if len(in.Defs) != 0 || len(in.Uses) > 1 {
			return bad()
		}
	}
	return nil
}
