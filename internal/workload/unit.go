package workload

import "gfd/internal/graph"

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
// own view; its work is every match with the pivots bound to a vector of
// them. Unit vectors partition the candidate vectors w = ⟨v̄_z, G_z̄⟩ of the
// paper's workload model, so validating a GFD reduces to running each unit.
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

// crossProduct enumerates candidate vectors with pairwise-distinct entries
// (pivots are images of distinct pattern nodes under an injective match).
// When symmetric is set (two isomorphic components), only ordered pairs
// v[0] < v[1] are emitted.
func crossProduct(cands [][]graph.NodeID, vec []graph.NodeID, depth int, symmetric bool, emit func([]graph.NodeID) bool) bool {
	if depth == len(cands) {
		return emit(vec)
	}
	for _, v := range cands[depth] {
		if symmetric && depth == 1 && v <= vec[0] {
			continue
		}
		dup := false
		for i := 0; i < depth; i++ {
			if vec[i] == v {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		vec[depth] = v
		if !crossProduct(cands, vec, depth+1, symmetric, emit) {
			return false
		}
	}
	return true
}

// EachVector enumerates candidate vectors with pairwise-distinct entries
// over the supplied per-component candidate lists, in cross-product order;
// symmetric keeps only the ordered pairs v[0] < v[1] of a two-component
// pattern. Enumeration stops early when fn returns false. The vector passed
// to fn is reused across calls.
func EachVector(cands [][]graph.NodeID, symmetric bool, fn func([]graph.NodeID) bool) {
	if len(cands) == 0 {
		return
	}
	vec := make([]graph.NodeID, len(cands))
	crossProduct(cands, vec, 0, symmetric, fn)
}

// CountVectors returns how many vectors EachVector enumerates. Candidate
// lists hold distinct nodes, so a single component needs no enumeration.
func CountVectors(cands [][]graph.NodeID, symmetric bool) int {
	if len(cands) == 1 {
		return len(cands[0])
	}
	n := 0
	EachVector(cands, symmetric, func([]graph.NodeID) bool { n++; return true })
	return n
}
