// Package workload implements the workload model of Section 5.2: pivot
// vectors PV(ϕ), work units w = ⟨v̄_z, G_z̄⟩, workload estimation W(Σ, G),
// the greedy 2-approximation for balanced n-partitions (Proposition 12),
// and the bi-criteria assignment that additionally minimizes communication
// cost for fragmented graphs (Proposition 13).
package workload

import (
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Pivot is the pivot vector PV(ϕ) = ((z_1, c¹_Q), ..., (z_k, c^k_Q)) of a
// pattern: one pivot variable per maximal connected component, chosen with
// minimum radius (eccentricity), plus the component radii. By the locality
// of subgraph isomorphism, every match of the pattern lies within the
// c_i-hop neighborhoods of the pivots' images.
type Pivot struct {
	Q          *pattern.Pattern
	Components [][]int // node indices per connected component
	Vars       []int   // pivot node index z_i per component
	Radii      []int   // component radius c^i_Q at the pivot
	symmetric  bool    // the two components are isomorphic (k == 2 only)
}

// ComputePivot derives PV(ϕ) for a pattern: per component the member of
// minimum radius, preferring a labelled node over a wildcard of the same
// radius (pattern.Center), so a wildcard never turns every graph node into
// a pivot candidate when a label class would do. It runs in O(|Q|²) time.
func ComputePivot(q *pattern.Pattern) *Pivot {
	comps := q.Components()
	p := &Pivot{
		Q:          q,
		Components: comps,
		Vars:       make([]int, len(comps)),
		Radii:      make([]int, len(comps)),
	}
	for i, members := range comps {
		p.Vars[i], p.Radii[i] = q.Center(members)
	}
	if len(comps) == 2 {
		p.symmetric = componentsIsomorphic(q, comps[0], comps[1])
	}
	return p
}

// ArbitraryPivot derives a pivot vector that ignores the min-radius rule
// and picks the first variable of each component instead; the pivot-choice
// ablation benchmark compares it against ComputePivot.
func ArbitraryPivot(q *pattern.Pattern) *Pivot {
	comps := q.Components()
	p := &Pivot{
		Q:          q,
		Components: comps,
		Vars:       make([]int, len(comps)),
		Radii:      make([]int, len(comps)),
	}
	for i, members := range comps {
		p.Vars[i] = members[0]
		p.Radii[i] = q.Eccentricity(members[0])
	}
	if len(comps) == 2 {
		p.symmetric = componentsIsomorphic(q, comps[0], comps[1])
	}
	return p
}

// Arity returns k = ‖z̄‖, the number of connected components.
func (p *Pivot) Arity() int { return len(p.Vars) }

// Symmetric reports whether the pattern has exactly two isomorphic
// components, in which case pivot-candidate pairs (a, b) and (b, a)
// generate duplicate work units and only ordered pairs need be emitted
// (the multi-query duplicate-removal optimization of Example 10).
func (p *Pivot) Symmetric() bool { return p.symmetric }

// componentsIsomorphic checks whether the sub-patterns induced by two
// component node sets are isomorphic (labels included).
func componentsIsomorphic(q *pattern.Pattern, a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	pa, pb := subPattern(q, a), subPattern(q, b)
	if pa.NumEdges() != pb.NumEdges() {
		return false
	}
	return pattern.EmbeddableExact(pa, pb) && pattern.EmbeddableExact(pb, pa)
}

// subPattern extracts the sub-pattern induced by the node indices in keep.
func subPattern(q *pattern.Pattern, keep []int) *pattern.Pattern {
	remap := make(map[int]int, len(keep))
	sub := pattern.New()
	for _, v := range keep {
		remap[v] = sub.AddNode(q.Nodes[v].Var, q.Nodes[v].Label)
	}
	for _, e := range q.Edges {
		if fi, ok := remap[e.From]; ok {
			if ti, ok := remap[e.To]; ok {
				sub.AddEdge(fi, ti, e.Label)
			}
		}
	}
	return sub
}

// ClassIn returns the candidate class pivot component i draws from on a
// compiled topology: the pivot label's interned code, WildcardSym for a
// wildcard pivot (all nodes). Components sharing a class share candidates.
func (p *Pivot) ClassIn(t graph.Topology, i int) graph.Sym {
	label := p.Q.Nodes[p.Vars[i]].Label
	if label == pattern.Wildcard {
		return graph.WildcardSym
	}
	return t.Syms().Lookup(label)
}

// CandidatesIn returns, for pivot component i, the candidate nodes of the
// pivot variable on a compiled topology (frozen snapshot or overlay): the
// pivot label's class, all nodes for a wildcard pivot.
func (p *Pivot) CandidatesIn(t graph.Topology, i int) []graph.NodeID {
	if class := p.ClassIn(t, i); class != graph.WildcardSym {
		return t.NodesWith(class)
	}
	all := make([]graph.NodeID, t.NumNodes())
	for j := range all {
		all[j] = graph.NodeID(j)
	}
	return all
}
