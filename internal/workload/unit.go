package workload

import "gfd/internal/graph"

// Unit is a work unit w = ⟨v̄_z, |G_z̄|⟩: a pivot candidate vector (one
// graph node per pattern component) plus the size of its data block — the
// union of the c_i-hop neighborhoods of the candidates. Validating a GFD
// reduces to enumerating matches inside each unit's data block with the
// pivots pinned.
type Unit struct {
	Pivot      *Pivot
	Candidates []graph.NodeID // v̄_z, aligned with Pivot.Vars
	BlockSize  int            // |G_z̄| = Σ_i |G_z̄[z_i]|, the unit's weight
}

// Weight returns the unit's load estimate used by the balancers. The paper
// weighs a unit by |G_z̄|^|Σ|; raising to the rule-set size overflows for
// any realistic block, so the implementation uses |G_z̄| directly — the
// ordering (and hence the greedy partition) is identical because the map
// x ↦ x^k is monotone.
func (u Unit) Weight() int { return u.BlockSize }

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

// BlockIn materializes the unit's data block G_z̄ as a node set: the union
// of the c_i-hop neighborhoods of the pivot candidates.
func (u Unit) BlockIn(t graph.Topology) graph.NodeSet {
	set := make(graph.NodeSet)
	for i, v := range u.Candidates {
		set.AddAll(t.Neighborhood(v, u.Pivot.Radii[i]))
	}
	return set
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

// CountVectors returns how many vectors EachVector enumerates, so callers
// can size unit storage exactly before filling it. Candidate lists hold
// distinct nodes, so a single component needs no enumeration.
func CountVectors(cands [][]graph.NodeID, symmetric bool) int {
	if len(cands) == 1 {
		return len(cands[0])
	}
	n := 0
	EachVector(cands, symmetric, func([]graph.NodeID) bool { n++; return true })
	return n
}
