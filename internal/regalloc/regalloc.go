// Package regalloc is a linear-scan register allocator for the standard
// (φ-free) code produced by the out-of-SSA translator. The paper's JIT
// context (Section I) motivates it: JIT back ends avoid interference
// graphs and allocate with linear scan, which is exactly why the
// translator must be fast, memory-lean, and must leave few copies.
//
// The allocator is deliberately classic (Poletto-Sarkar style, coarse
// intervals, furthest-end spilling) and honours the translator's register
// pinning: a variable pinned to an architectural register receives that
// register, evicting whoever holds it. The package also provides an
// independent verifier that re-derives liveness and checks that no two
// simultaneously live variables share a register — which doubles as an
// end-to-end check that coalescing never merged interfering variables.
package regalloc

import (
	"fmt"
	"sort"

	"repro/internal/bitset"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// Interval is the coarse live interval of one variable over the linearized
// function.
type Interval struct {
	Var        ir.VarID
	Start, End int32
	Reg        string // assigned register; "" when spilled
	Spilled    bool
	Pinned     string // required architectural register, if any
}

// Result reports an allocation.
type Result struct {
	Intervals []Interval
	RegOf     []string // per variable; "" = spilled or never live
	Spills    int
	RegsUsed  int
}

// AllocateWith runs linear scan over f with the given register pool.
// Pinned variables require their architectural register to be in the
// pool. f must be φ-free (translate out of SSA first). The caller provides
// the dataflow liveness, so one liveness computation can be shared between
// interval construction and VerifyWith (or served by the pipeline's
// analysis cache). live must describe the current instructions of f.
func AllocateWith(f *ir.Func, pool []string, live *liveness.Info) (*Result, error) {
	for _, b := range f.Blocks {
		if len(b.Phis) != 0 {
			return nil, fmt.Errorf("regalloc: %s still contains φ-functions", f.Name)
		}
	}
	inPool := map[string]bool{}
	for _, r := range pool {
		if inPool[r] {
			return nil, fmt.Errorf("regalloc: duplicate register %s in pool", r)
		}
		inPool[r] = true
	}

	intervals := buildIntervals(f, live)
	for i := range intervals {
		if p := f.Vars[intervals[i].Var].Reg; p != "" {
			if !inPool[p] {
				return nil, fmt.Errorf("regalloc: pinned register %s not in pool", p)
			}
			intervals[i].Pinned = p
		}
	}
	sort.SliceStable(intervals, func(i, j int) bool {
		if intervals[i].Start != intervals[j].Start {
			return intervals[i].Start < intervals[j].Start
		}
		return intervals[i].Var < intervals[j].Var
	})

	res := &Result{RegOf: make([]string, len(f.Vars))}
	var active []*Interval
	free := append([]string(nil), pool...)
	used := map[string]bool{}

	take := func(reg string) {
		for i, r := range free {
			if r == reg {
				free = append(free[:i], free[i+1:]...)
				return
			}
		}
	}
	release := func(reg string) { free = append(free, reg) }
	expire := func(start int32) {
		keep := active[:0]
		for _, a := range active {
			if a.End < start {
				release(a.Reg)
			} else {
				keep = append(keep, a)
			}
		}
		active = keep
	}
	spill := func(iv *Interval) {
		iv.Spilled = true
		iv.Reg = ""
		res.Spills++
	}
	evict := func(reg string) error {
		for i, a := range active {
			if a.Reg != reg {
				continue
			}
			if a.Pinned != "" {
				return fmt.Errorf("regalloc: overlapping intervals pinned to %s (%s)", reg, a.Pinned)
			}
			spill(a)
			active = append(active[:i], active[i+1:]...)
			release(reg)
			return nil
		}
		return nil
	}

	for i := range intervals {
		iv := &intervals[i]
		expire(iv.Start)
		if iv.Pinned != "" {
			held := false
			for _, r := range free {
				if r == iv.Pinned {
					held = true
				}
			}
			if !held {
				if err := evict(iv.Pinned); err != nil {
					return nil, err
				}
			}
			take(iv.Pinned)
			iv.Reg = iv.Pinned
			active = append(active, iv)
			used[iv.Reg] = true
			continue
		}
		if len(free) > 0 {
			iv.Reg = free[0]
			free = free[1:]
			active = append(active, iv)
			used[iv.Reg] = true
			continue
		}
		// No register: spill the furthest-ending unpinned interval.
		victim := iv
		for _, a := range active {
			if a.Pinned == "" && a.End > victim.End {
				victim = a
			}
		}
		if victim == iv {
			spill(iv)
			continue
		}
		iv.Reg = victim.Reg
		used[iv.Reg] = true
		spill(victim)
		for j, a := range active {
			if a == victim {
				active[j] = iv
				break
			}
		}
	}

	for _, iv := range intervals {
		if !iv.Spilled {
			res.RegOf[iv.Var] = iv.Reg
		}
	}
	res.Intervals = intervals
	res.RegsUsed = len(used)
	return res, nil
}

// buildIntervals linearizes the blocks in their slice order and computes a
// coarse [start, end] interval per variable from dataflow liveness.
func buildIntervals(f *ir.Func, live *liveness.Info) []Interval {
	start := make([]int32, len(f.Vars))
	end := make([]int32, len(f.Vars))
	seen := bitset.New(len(f.Vars))
	for i := range start {
		start[i] = 1<<31 - 1
		end[i] = -1
	}
	touch := func(v ir.VarID, at int32) {
		seen.Add(int(v))
		if at < start[v] {
			start[v] = at
		}
		if at > end[v] {
			end[v] = at
		}
	}
	pos := int32(0)
	for _, b := range f.Blocks {
		blockStart := pos
		live.In(b.ID).ForEach(func(v int) { touch(ir.VarID(v), blockStart) })
		for _, in := range b.Instrs {
			pos++
			for _, u := range in.Uses {
				touch(u, pos)
			}
			for _, d := range in.Defs {
				touch(d, pos)
			}
		}
		live.Out(b.ID).ForEach(func(v int) { touch(ir.VarID(v), pos) })
	}
	var out []Interval
	seen.ForEach(func(v int) {
		out = append(out, Interval{Var: ir.VarID(v), Start: start[v], End: end[v]})
	})
	return out
}

// VerifyWith checks the assignment against liveness: no two simultaneously
// live register-resident variables share a register, and every pinned
// register-resident variable holds its architectural register. The
// pipeline threads the same liveness.Info through allocation and
// verification instead of recomputing it for each; a check independent of
// the allocation passes a fresh liveness.Compute(f).
func VerifyWith(f *ir.Func, res *Result, live *liveness.Info) error {
	for v, reg := range res.RegOf {
		if p := f.Vars[v].Reg; p != "" && reg != "" && reg != p {
			return fmt.Errorf("regalloc: %s pinned to %s but assigned %s",
				f.VarName(ir.VarID(v)), p, reg)
		}
	}
	check := func(set *bitset.Set, where string) error {
		held := map[string]ir.VarID{}
		var err error
		set.ForEach(func(v int) {
			if err != nil {
				return
			}
			reg := res.RegOf[v]
			if reg == "" {
				return
			}
			if prev, ok := held[reg]; ok {
				err = fmt.Errorf("regalloc: %s and %s both live in %s at %s",
					f.VarName(prev), f.VarName(ir.VarID(v)), reg, where)
				return
			}
			held[reg] = ir.VarID(v)
		})
		return err
	}
	lv := bitset.New(len(f.Vars))
	for _, b := range f.Blocks {
		lv.Clear()
		live.Out(b.ID).ForEach(func(v int) { lv.Add(v) })
		if err := check(lv, "exit of "+b.Name); err != nil {
			return err
		}
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			for _, d := range in.Defs {
				lv.Remove(int(d))
			}
			for _, u := range in.Uses {
				lv.Add(int(u))
			}
			if err := check(lv, fmt.Sprintf("%s[%d]", b.Name, i)); err != nil {
				return err
			}
		}
	}
	return nil
}
