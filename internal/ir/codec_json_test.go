package ir

import (
	"encoding/json"
	"fmt"
	"math"
)

// The JSON codec for Func that version-1 memo snapshots used, kept as the
// differential oracle of the binary codec (codec.go): both must rebuild the
// same function — variable order, derived bases, register pins, explicit
// Preds/Succs order — and reject the same damage.

type funcJSON struct {
	Name      string      `json:"name"`
	NumParams int         `json:"num_params"`
	Vars      []varJSON   `json:"vars"`
	Blocks    []blockJSON `json:"blocks"`
}

type varJSON struct {
	Name string `json:"name,omitempty"`
	Reg  string `json:"reg,omitempty"`
	// Base is the index of the variable this one derives from, or nil.
	Base *int `json:"base,omitempty"`
}

type blockJSON struct {
	Name   string      `json:"name"`
	Freq   float64     `json:"freq"`
	Preds  []int       `json:"preds"`
	Succs  []int       `json:"succs"`
	Phis   []instrJSON `json:"phis,omitempty"`
	Instrs []instrJSON `json:"instrs"`
}

type instrJSON struct {
	Op   uint8 `json:"op"`
	Defs []int `json:"defs,omitempty"`
	Uses []int `json:"uses,omitempty"`
	Aux  int64 `json:"aux,omitempty"`
}

// EncodeJSON renders f as a single JSON object.
func EncodeJSON(f *Func) ([]byte, error) {
	out := funcJSON{
		Name:      f.Name,
		NumParams: f.NumParams,
		Vars:      make([]varJSON, len(f.Vars)),
		Blocks:    make([]blockJSON, len(f.Blocks)),
	}
	for i, v := range f.Vars {
		vj := varJSON{Name: v.Name, Reg: v.Reg}
		if v.base != NoVar {
			b := int(v.base)
			vj.Base = &b
		}
		out.Vars[i] = vj
	}
	for i, b := range f.Blocks {
		bj := blockJSON{
			Name:  b.Name,
			Freq:  b.Freq,
			Preds: blockIndices(b.Preds),
			Succs: blockIndices(b.Succs),
		}
		for _, in := range b.Phis {
			bj.Phis = append(bj.Phis, encodeInstr(in))
		}
		for _, in := range b.Instrs {
			bj.Instrs = append(bj.Instrs, encodeInstr(in))
		}
		out.Blocks[i] = bj
	}
	return json.Marshal(out)
}

func blockIndices(bs []*Block) []int {
	out := make([]int, len(bs))
	for i, b := range bs {
		out[i] = b.ID
	}
	return out
}

func encodeInstr(in *Instr) instrJSON {
	return instrJSON{
		Op:   uint8(in.Op),
		Defs: varIndices(in.Defs),
		Uses: varIndices(in.Uses),
		Aux:  in.Aux,
	}
}

func varIndices(vs []VarID) []int {
	if len(vs) == 0 {
		return nil
	}
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

// DecodeJSON rebuilds a Func from EncodeJSON output. Every index is bounds
// checked and the result must pass Verify, so a corrupted or hand-edited
// snapshot entry is rejected rather than smuggled into the process.
func DecodeJSON(data []byte) (*Func, error) {
	var in funcJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("ir: decode: %w", err)
	}
	if in.NumParams < 0 || in.NumParams > maxParamIndex+1 {
		return nil, fmt.Errorf("ir: decode %q: num_params %d out of range", in.Name, in.NumParams)
	}
	if len(in.Blocks) == 0 {
		return nil, fmt.Errorf("ir: decode %q: no blocks", in.Name)
	}
	f := NewFunc(in.Name)
	f.NumParams = in.NumParams
	for i, vj := range in.Vars {
		id := f.NewVar(vj.Name)
		if vj.Reg != "" {
			f.Vars[id].Reg = vj.Reg
		}
		if vj.Base != nil {
			// Bases must point strictly backwards: VarName recurses
			// through base links, and a forward or self link would cycle.
			if *vj.Base < 0 || *vj.Base >= i {
				return nil, fmt.Errorf("ir: decode %q: var %d has bad base %d", in.Name, i, *vj.Base)
			}
			f.Vars[id].base = VarID(*vj.Base)
		}
	}
	nb, nv := len(in.Blocks), len(in.Vars)
	for _, bj := range in.Blocks {
		b := f.NewBlock(bj.Name)
		if math.IsNaN(bj.Freq) || math.IsInf(bj.Freq, 0) || bj.Freq < 0 {
			return nil, fmt.Errorf("ir: decode %q: block %s freq %v out of range", in.Name, b.Name, bj.Freq)
		}
		b.Freq = bj.Freq
	}
	for i, bj := range in.Blocks {
		b := f.Blocks[i]
		var err error
		if b.Preds, err = resolveBlocks(f, bj.Preds, nb); err != nil {
			return nil, fmt.Errorf("ir: decode %q: block %s preds: %w", in.Name, b.Name, err)
		}
		if b.Succs, err = resolveBlocks(f, bj.Succs, nb); err != nil {
			return nil, fmt.Errorf("ir: decode %q: block %s succs: %w", in.Name, b.Name, err)
		}
		for _, ij := range bj.Phis {
			instr, err := decodeInstr(ij, nv)
			if err != nil {
				return nil, fmt.Errorf("ir: decode %q: block %s: %w", in.Name, b.Name, err)
			}
			b.Phis = append(b.Phis, instr)
		}
		for _, ij := range bj.Instrs {
			instr, err := decodeInstr(ij, nv)
			if err != nil {
				return nil, fmt.Errorf("ir: decode %q: block %s: %w", in.Name, b.Name, err)
			}
			b.Instrs = append(b.Instrs, instr)
		}
	}
	if err := Verify(f); err != nil {
		return nil, fmt.Errorf("ir: decode %q: %w", in.Name, err)
	}
	return f, nil
}

func resolveBlocks(f *Func, idx []int, nb int) ([]*Block, error) {
	if len(idx) == 0 {
		return nil, nil
	}
	out := make([]*Block, len(idx))
	for i, id := range idx {
		if id < 0 || id >= nb {
			return nil, fmt.Errorf("block index %d out of range [0, %d)", id, nb)
		}
		out[i] = f.Blocks[id]
	}
	return out, nil
}

func decodeInstr(ij instrJSON, nv int) (*Instr, error) {
	if Op(ij.Op) > OpRet {
		return nil, fmt.Errorf("bad opcode %d", ij.Op)
	}
	in := &Instr{Op: Op(ij.Op), Aux: ij.Aux}
	var err error
	if in.Defs, err = resolveVars(ij.Defs, nv); err != nil {
		return nil, err
	}
	if in.Uses, err = resolveVars(ij.Uses, nv); err != nil {
		return nil, err
	}
	return in, nil
}

func resolveVars(idx []int, nv int) ([]VarID, error) {
	if len(idx) == 0 {
		return nil, nil
	}
	out := make([]VarID, len(idx))
	for i, id := range idx {
		if id < 0 || id >= nv {
			return nil, fmt.Errorf("var index %d out of range [0, %d)", id, nv)
		}
		out[i] = VarID(id)
	}
	return out, nil
}
