package workload

// Range is a half-open range [Lo, Hi) of positions in a pivot component's
// class (Pivot.Class, ascending node IDs; all nodes for a wildcard).
type Range struct {
	Lo, Hi int
}

// Len returns the number of class members the range covers.
func (r Range) Len() int { return r.Hi - r.Lo }

// Unit is a work unit of a chunk plan: one range of each pivot component's
// class. Its pivot candidates are the range members that pass the star
// test (Pivot.Candidates), found by the slot that runs the unit, over its
// own view; its work is every match with each pivot bound to one of its
// candidates, enumerated with every pivot pinned to its list. Units
// partition the candidate vectors w = ⟨v̄_z, G_z̄⟩ of the paper's workload
// model, so validating a GFD reduces to running each unit.
type Unit struct {
	Pivot  *Pivot
	Ranges []Range // one per component, aligned with Pivot.Vars
	Load   int     // the balancers' estimate of the unit's work
}

// Weight returns the unit's load estimate used by the balancers. A chunk
// plan weighs a unit by its member count times the mean degree, and a
// heavy pivot's stripe by its share of the pivot's degree: counts the
// planner has without reading a member.
func (u Unit) Weight() int { return u.Load }
