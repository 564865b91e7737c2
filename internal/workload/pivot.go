// Package workload implements the workload model of Section 5.2: pivot
// vectors PV(ϕ), work units w = ⟨v̄_z, G_z̄⟩, workload estimation W(Σ, G),
// the greedy 2-approximation for balanced n-partitions (Proposition 12),
// and the bi-criteria assignment that additionally minimizes communication
// cost for fragmented graphs (Proposition 13).
package workload

import (
	"slices"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Pivot is the pivot vector PV(ϕ) = ((z_1, c¹_Q), ..., (z_k, c^k_Q)) of a
// pattern: one pivot variable per maximal connected component plus the
// component radii, the pivot's eccentricity in its component. By the
// locality of subgraph isomorphism, every match of the pattern lies within
// the c_i-hop neighborhoods of the pivots' images — for any choice of pivot
// node, at that node's eccentricity. A component is either centred (the
// minimum-radius node, all of its label class are candidates) or seeded
// (Seed: a node carrying a constant X literal, only the class members whose
// attribute holds one of the constants are candidates).
type Pivot struct {
	Q          *pattern.Pattern
	Components [][]int  // node indices per connected component
	Vars       []int    // pivot node index z_i per component
	Radii      []int    // component radius c^i_Q at the pivot
	Filters    []Filter // candidate restriction per component; zero = the whole class
	symmetric  bool     // the two components are isomorphic (k == 2 only)
}

// Filter restricts a seeded pivot's candidates to the class members whose
// attribute Attr holds one of Values (sorted, distinct). The zero Filter
// admits the whole class.
type Filter struct {
	Attr   string
	Values []string
}

// Active reports whether f restricts anything.
func (f Filter) Active() bool { return f.Attr != "" }

// Equal reports whether f and o admit the same nodes on every graph.
func (f Filter) Equal(o Filter) bool { return f.Attr == o.Attr && slices.Equal(f.Values, o.Values) }

// ComputePivot derives PV(ϕ) for a pattern: per component the member of
// minimum radius, preferring a labelled node over a wildcard of the same
// radius (pattern.Center), so a wildcard never turns every graph node into
// a pivot candidate when a label class would do. No component is seeded.
// It runs in O(|Q|²) time.
func ComputePivot(q *pattern.Pattern) *Pivot {
	comps := q.Components()
	p := &Pivot{
		Q:          q,
		Components: comps,
		Vars:       make([]int, len(comps)),
		Radii:      make([]int, len(comps)),
		Filters:    make([]Filter, len(comps)),
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
		Filters:    make([]Filter, len(comps)),
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

// Seed makes pattern node z the pivot of its component, at radius
// eccentricity(z), and restricts the component's candidates by f: when every
// rule checked on the pattern has X literal z.A = c for one of f's
// constants, a match can violate only where its image of z carries one, so
// the units are exactly the nodes where some X can hold.
func (p *Pivot) Seed(z int, f Filter) {
	for i, members := range p.Components {
		if slices.Contains(members, z) {
			p.Vars[i], p.Radii[i], p.Filters[i] = z, p.Q.Eccentricity(z), f
			return
		}
	}
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
// pivot label's class, all nodes for a wildcard pivot, kept to the members
// that pass the component's filter when it is seeded. The filter reads the
// topology's own attributes, so an overlay's updates count; a constant its
// symbol table never interned holds on no node.
func (p *Pivot) CandidatesIn(t graph.Topology, i int) []graph.NodeID {
	var class []graph.NodeID
	if c := p.ClassIn(t, i); c != graph.WildcardSym {
		class = t.NodesWith(c)
	} else {
		class = make([]graph.NodeID, t.NumNodes())
		for j := range class {
			class[j] = graph.NodeID(j)
		}
	}
	if f := p.Filters[i]; f.Active() {
		return f.keep(t, class)
	}
	return class
}

// keep returns the members of class that pass f on t, in class order.
func (f Filter) keep(t graph.Topology, class []graph.NodeID) []graph.NodeID {
	syms := t.Syms()
	attr := syms.Lookup(f.Attr)
	var vals []graph.Sym
	for _, c := range f.Values {
		if s := syms.Lookup(c); s != graph.NoSym {
			vals = append(vals, s)
		}
	}
	var out []graph.NodeID
	if attr == graph.NoSym || len(vals) == 0 {
		return out
	}
	view := t.View()
	for _, v := range class {
		if s, ok := view.AttrSym(v, attr); ok && slices.Contains(vals, s) {
			out = append(out, v)
		}
	}
	return out
}
