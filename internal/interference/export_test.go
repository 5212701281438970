package interference

// The pre-optimization query derivations: linear use-list scans and
// def points derived per query from DU and DT, with no key cache. They are
// the differential oracle of LiveAfter's binary search and of the packed
// def-point keys behind DefOrder, DefDominates and UnreachableDef.

import "repro/internal/ir"

// LiveAfterReference is LiveAfter with the pre-optimization linear scan of
// the whole use list (order-independent, hence insensitive to the sorted
// storage) — the differential baseline.
func (c *Checker) LiveAfterReference(v ir.VarID, b int, slot int32) bool {
	if !c.DU.HasDef(v) {
		return false
	}
	db, ds := c.DU.DefBlock(v), c.DU.DefSlot(v)
	if db == b {
		if ds > slot {
			return false
		}
	} else if !c.DT.Dominates(db, b) {
		return false
	}
	for _, u := range c.DU.Uses(v) {
		if int(u.Block) == b && u.Slot > slot {
			return true
		}
	}
	return c.Live.LiveOutBlock(v, b)
}

// DefOrderReference derives both definition points per query, as the
// pre-optimization implementation did.
func (c *Checker) DefOrderReference(a, b ir.VarID) int {
	ha, hb := c.DU.HasDef(a), c.DU.HasDef(b)
	switch {
	case !ha && !hb:
		return int(a) - int(b)
	case !ha:
		return 1
	case !hb:
		return -1
	}
	pa, pb := c.DT.PreOrder(c.DU.DefBlock(a)), c.DT.PreOrder(c.DU.DefBlock(b))
	if pa != pb {
		return int(pa - pb)
	}
	if sa, sb := c.DU.DefSlot(a), c.DU.DefSlot(b); sa != sb {
		return int(sa - sb)
	}
	return 0
}

// DefDominatesReference is the per-query derivation baseline.
func (c *Checker) DefDominatesReference(a, b ir.VarID) bool {
	if !c.DU.HasDef(a) || !c.DU.HasDef(b) {
		return false
	}
	da, db := c.DU.DefBlock(a), c.DU.DefBlock(b)
	if da == db {
		return c.DU.DefSlot(a) <= c.DU.DefSlot(b)
	}
	return c.DT.Dominates(da, db)
}

// UnreachableDefReference derives UnreachableDef from the def block's
// reachability instead of the preorder half of the cached key.
func (c *Checker) UnreachableDefReference(v ir.VarID) bool {
	return c.DU.HasDef(v) && !c.DT.Reachable(c.DU.DefBlock(v))
}
