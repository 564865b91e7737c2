// Package workload implements the workload model of Section 5.2: pivot
// vectors PV(ϕ) and their candidates (the pivot label's class, kept to the
// holders of its seeds when a constant X seeds it, semi-joined with the
// pivot's pattern neighbours), the class ranges a work unit covers (the
// unit itself is validate.Unit, whose candidates are found where it runs),
// the greedy 2-approximation for balanced n-partitions (Proposition 12),
// and the bi-criteria assignment that additionally minimizes communication
// cost for fragmented graphs (Proposition 13). The balancers read unit
// weights only.
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
// minimum-radius node) or seeded (Seed: a node carrying a constant X
// literal, whose lowered seeds keep the class members holding one of the
// rules' constants there). Either way its candidates are the class members
// where every pattern neighbour of the pivot can bind (Candidates), so a
// unit enumerates only where the pivot's star is present.
type Pivot struct {
	Q          *pattern.Pattern
	Components [][]int   // node indices per connected component
	Vars       []int     // pivot node index z_i per component
	Radii      []int     // component radius c^i_Q at the pivot
	seeded     []bool    // per component: its pivot was placed by Seed
	symmetric  bool      // the two components are isomorphic (k == 2 only)
	low        []lowered // per component, set on the copy Lower returns
}

// Range is a half-open range [Lo, Hi) of positions in a pivot component's
// class (Pivot.Class, ascending node IDs; all nodes for a wildcard).
type Range struct {
	Lo, Hi int
}

// Len returns the number of class members the range covers.
func (r Range) Len() int { return r.Hi - r.Lo }

// lowered is one pivot component lowered onto a symbol table: the codes
// Class, ClassLen and Candidates read, never the members or adjacency.
type lowered struct {
	class graph.Sym // the pivot label's code; WildcardSym for all nodes
	// seeds, on a seeded component, are the (attribute, value) pairs of
	// which a candidate must hold one; nil restricts nothing, and an empty
	// list keeps no member.
	seeds []graph.AttrPair
	// star holds, per pattern neighbour of the pivot (itself, for a
	// self-loop), the runs along the edges joining them.
	star [][]starRun
}

// ComputePivot derives PV(ϕ) for a pattern: per component the member of
// minimum radius, preferring a labelled node over a wildcard of the same
// radius (pattern.Center), so a wildcard never turns every graph node into
// a pivot candidate when a label class would do. No component is seeded.
// The second of two isomorphic components pivots on the image of the
// first's pivot, so both pivots have one star and one candidate list, which
// the symmetric unit deduplication needs. It runs in O(|Q|²) time.
func ComputePivot(q *pattern.Pattern) *Pivot {
	comps := q.Components()
	p := &Pivot{
		Q:          q,
		Components: comps,
		Vars:       make([]int, len(comps)),
		Radii:      make([]int, len(comps)),
		seeded:     make([]bool, len(comps)),
	}
	for i, members := range comps {
		p.Vars[i], p.Radii[i] = q.Center(members)
	}
	if len(comps) == 2 {
		if z := mirror(q, comps[0], comps[1], p.Vars[0]); z >= 0 {
			p.Vars[1], p.Radii[1], p.symmetric = z, p.Radii[0], true
		}
	}
	return p
}

// Seed makes pattern node z the pivot of its component, at radius
// eccentricity(z), and marks the component seeded: Lower restricts its
// candidates to the holders of the constants the rules' X requires at z,
// so units exist only at nodes where some X can hold.
func (p *Pivot) Seed(z int) {
	for i, members := range p.Components {
		if slices.Contains(members, z) {
			p.Vars[i], p.Radii[i], p.seeded[i] = z, p.Q.Eccentricity(z), true
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

// mirror returns the node of component b that the first label-exact
// isomorphism between the sub-patterns the two components induce maps a's
// node z onto, or -1 when they are not isomorphic.
func mirror(q *pattern.Pattern, a, b []int, z int) int {
	if len(a) != len(b) {
		return -1
	}
	perm, ok := pattern.Isomorphism(pattern.Induced(q, a), pattern.Induced(q, b), nil)
	if !ok {
		return -1
	}
	return b[perm[slices.Index(a, z)]]
}

// Lower returns a copy of p with each component's class label and star
// lowered onto syms, which Class, ClassLen and Candidates read: call them
// on such a copy. A seeded component with pivot z keeps seedsAt(z) as its
// seeds (core.Guard.SeedsAt, lowered onto the same table); a nil seedsAt
// restricts nothing. p is never changed, since a table grows with its
// overlay's updates and a pivot shared across views is lowered for each.
func (p *Pivot) Lower(syms *graph.Symbols, seedsAt func(z int) []graph.AttrPair) *Pivot {
	lp := *p
	lp.low = make([]lowered, len(p.Vars))
	for i, z := range p.Vars {
		l := &lp.low[i]
		l.class = pattern.LowerLabel(p.Q.Nodes[z].Label, syms)
		if p.seeded[i] && seedsAt != nil {
			l.seeds = seedsAt(z)
		}
		var nbrs []int
		add := func(q int, label string, in bool) {
			j := slices.Index(nbrs, q)
			if j < 0 {
				j = len(nbrs)
				nbrs = append(nbrs, q)
				l.star = append(l.star, nil)
			}
			l.star[j] = append(l.star[j], starRun{
				label: pattern.LowerLabel(label, syms),
				nbr:   pattern.LowerLabel(p.Q.Nodes[q].Label, syms),
				in:    in,
			})
		}
		for _, ei := range p.Q.OutEdges(z) {
			add(p.Q.Edges[ei].To, p.Q.Edges[ei].Label, false)
		}
		for _, ei := range p.Q.InEdges(z) {
			add(p.Q.Edges[ei].From, p.Q.Edges[ei].Label, true)
		}
	}
	return &lp
}

// Seeds returns the seeds component i was lowered with: nil when it
// restricts nothing.
func (p *Pivot) Seeds(i int) []graph.AttrPair { return p.low[i].seeds }

// Class returns component i's class on t in ascending node order, and nil
// for a wildcard pivot, whose class is every node: position k is node k.
func (p *Pivot) Class(t *graph.Snapshot, i int) []graph.NodeID {
	if c := p.low[i].class; c != graph.WildcardSym {
		return t.NodesWith(c)
	}
	return nil
}

// ClassLen returns the size of component i's class on t.
func (p *Pivot) ClassLen(t *graph.Snapshot, i int) int {
	if c := p.low[i].class; c != graph.WildcardSym {
		return t.ClassSize(c)
	}
	return t.NumNodes()
}

// CandidatesIn lowers p onto t's table unseeded and returns component i's
// candidates over its whole class: Candidates over [0, ClassLen).
func (p *Pivot) CandidatesIn(t *graph.Snapshot, i int) []graph.NodeID {
	lp := p.Lower(t.Syms(), nil)
	return lp.Candidates(t, i, Range{0, lp.ClassLen(t, i)})
}

// Candidates returns, for pivot component i, the candidate nodes of the
// pivot variable among the class members at positions r on a compiled
// view (frozen snapshot or overlay view), in class order: the members that
// hold one of the component's seeds when it has any and at which every
// pattern neighbour q of the pivot can bind — the star test. For each q,
// every run of the member's adjacency along a pivot–q pattern edge, keyed
// by q's label, is non-empty, and the runs with a concrete edge and q
// label — the To-sorted ones — share a neighbour. Injectivity is ignored, so the test
// is weaker than a match and never drops one. One pass over the range runs
// both tests on the view itself, so an overlay's updates count; a label the
// table p was lowered onto never interned holds on no node. With nothing
// to test, the result may alias the view's class.
func (p *Pivot) Candidates(t *graph.Snapshot, i int, r Range) []graph.NodeID {
	l := &p.low[i]
	class := p.Class(t, i)
	if class != nil {
		class = class[r.Lo:r.Hi]
	}
	if l.seeds == nil && len(l.star) == 0 {
		if class == nil {
			class = make([]graph.NodeID, r.Len())
			for k := range class {
				class[k] = graph.NodeID(r.Lo + k)
			}
		}
		return class
	}
	var out, common []graph.NodeID
	var runsArr [graph.MaxIntersectArity][]graph.CSREdge
next:
	for j := range r.Len() {
		v := graph.NodeID(r.Lo + j)
		if class != nil {
			v = class[j]
		}
		if l.seeds != nil && !slices.ContainsFunc(l.seeds, func(kv graph.AttrPair) bool {
			a, ok := t.AttrSym(v, kv.Name)
			return ok && a == kv.Val
		}) {
			continue
		}
		for _, nbr := range l.star {
			runs := runsArr[:0]
			for _, run := range nbr {
				var es []graph.CSREdge
				if run.in {
					es = t.InWithNbr(v, run.label, run.nbr)
				} else {
					es = t.OutWithNbr(v, run.label, run.nbr)
				}
				if len(es) == 0 {
					continue next
				}
				if run.label != graph.WildcardSym && run.nbr != graph.WildcardSym {
					runs = append(runs, es)
				}
			}
			if len(runs) >= 2 {
				if common = graph.IntersectAdjacency(common[:0], runs); len(common) == 0 {
					continue next
				}
			}
		}
		out = append(out, v)
	}
	return out
}

// starRun is one pattern edge at a pivot lowered onto a symbol table: its
// label, the label of the neighbour at its other end, and its direction.
type starRun struct {
	label, nbr graph.Sym
	in         bool
}
