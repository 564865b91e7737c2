package workload

import (
	"fmt"
	"slices"
	"testing"

	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// fuzzInstance decodes a small graph and pattern from data: node labels
// from {a, b}, node i's val "i", edge labels from {e, f}, self-loops
// allowed in both and parallel edges in the pattern, which also draws the
// wildcard for node and edge labels and may fall into several components.
// Last come the constants a seeded pivot requires of its val: one or two
// of the graph's values and one that no node holds. Missing bytes read as
// zero.
func fuzzInstance(data []byte) (*graph.Graph, *pattern.Pattern, []string) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	labels := []string{"a", "b", pattern.Wildcard}
	edges := []string{"e", "f", pattern.Wildcard}
	g := graph.New(0, 0)
	nodes := 1 + next(7)
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[next(2)], graph.Attrs{"val": fmt.Sprint(i)})
	}
	for i := next(20); i > 0; i-- {
		from, to, l := graph.NodeID(next(nodes)), graph.NodeID(next(nodes)), edges[next(2)]
		if !g.HasEdge(from, to, l) {
			g.MustAddEdge(from, to, l)
		}
	}
	q := pattern.New()
	qn := 1 + next(4)
	for i := 0; i < qn; i++ {
		q.AddNode(pattern.Var(fmt.Sprintf("x%d", i)), labels[next(3)])
	}
	for i := next(6); i > 0; i-- {
		q.AddEdge(next(qn), next(qn), edges[next(3)])
	}
	vals := []string{"never"}
	for i := 1 + next(2); i > 0; i-- {
		vals = append(vals, fmt.Sprint(next(nodes)))
	}
	return g, q, vals
}

// hasStar reports whether every pattern neighbour of z can bind at v, read
// through g's strings: each pattern edge joining them has a graph edge at
// v in its direction — with its label reaching a node of the neighbour's
// label, or any edge at all for a wildcard edge label — and the edges
// whose labels and neighbour label are concrete reach one common node.
func hasStar(g *graph.Graph, q *pattern.Pattern, z int, v graph.NodeID) bool {
	common := map[int][]graph.NodeID{}
	reach := func(nbr int, label string, es []graph.HalfEdge) bool {
		if label == pattern.Wildcard {
			return len(es) > 0
		}
		nl := q.Nodes[nbr].Label
		var hit []graph.NodeID
		for _, e := range es {
			if e.Label == label && pattern.LabelMatches(nl, g.Label(e.To)) {
				hit = append(hit, e.To)
			}
		}
		if prev, ok := common[nbr]; ok && nl != pattern.Wildcard {
			hit = slices.DeleteFunc(hit, func(w graph.NodeID) bool { return !slices.Contains(prev, w) })
		}
		if nl != pattern.Wildcard {
			common[nbr] = hit
		}
		return len(hit) > 0
	}
	for _, ei := range q.OutEdges(z) {
		if e := q.Edges[ei]; !reach(e.To, e.Label, g.Out(v)) {
			return false
		}
	}
	for _, ei := range q.InEdges(z) {
		if e := q.Edges[ei]; !reach(e.From, e.Label, g.In(v)) {
			return false
		}
	}
	return true
}

// FuzzPivotCandidates: on a small graph and pattern built from the input,
// CandidatesIn (lowered unseeded) keeps every node with a match pinned at
// a component's pivot, for the min-radius pivot and for a pivot placed at
// each pattern node (Seed, as a seeded group pivots where its constant
// sits). That placed pivot, lowered with the input's constants, keeps
// exactly what it must: every node holding one of them that has a pinned
// match, and only nodes of the pivot's label that hold one and have the
// pivot's star (hasStar).
func FuzzPivotCandidates(f *testing.F) {
	f.Add([]byte{})
	// Two parallel x0→x1 edges (Fig. 7 GFD 1) over a graph that has them.
	f.Add([]byte{2, 0, 1, 2, 0, 1, 0, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 0, 0, 1, 1})
	// A self-loop at the pivot beside a wildcard neighbour.
	f.Add([]byte{3, 0, 0, 1, 3, 0, 0, 0, 0, 1, 0, 2, 1, 1, 2, 3, 0, 2, 0, 0, 0, 0, 1, 0})
	// x0→x1 together with x1→x0, and a wildcard edge label.
	f.Add([]byte{2, 1, 0, 3, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 2, 0, 1, 3, 0, 1, 0, 1, 0, 1, 1, 2})
	// An a-node chain 0→1→2→3 under the edge x0→x1, seeded at x0 with
	// vals "1" and "3": node 1 has the star, node 3 does not.
	f.Add([]byte{3, 0, 0, 0, 0, 3, 0, 1, 0, 1, 2, 0, 2, 3, 0, 1, 0, 0, 1, 0, 1, 0, 1, 1, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q, vals := fuzzInstance(data)
		snap := g.Freeze()
		syms := snap.Syms()
		m := match.NewMatcher(snap)
		pinned := func(z int, v graph.NodeID) bool {
			return len(m.All(q, match.Options{Limit: 1, Pins: []match.Pin{{Node: z, To: []graph.NodeID{v}}}})) > 0
		}
		unseeded := func(pv *Pivot) {
			for i, z := range pv.Vars {
				kept := pv.CandidatesIn(snap, i)
				for v := range graph.NodeID(snap.NumNodes()) {
					if !slices.Contains(kept, v) && pinned(z, v) {
						t.Fatalf("pattern %s, pivot %d: node %d has a pinned match, yet CandidatesIn keeps %v", q, z, v, kept)
					}
				}
			}
		}
		unseeded(ComputePivot(q))
		var seeds []graph.AttrPair
		for _, c := range vals {
			seeds = append(seeds, graph.AttrPair{Name: syms.Lookup("val"), Val: syms.Lookup(c)})
		}
		for z := range q.NumNodes() {
			pv := ComputePivot(q)
			pv.Seed(z)
			unseeded(pv)
			lp := pv.Lower(syms, func(int) []graph.AttrPair { return seeds })
			i := slices.Index(lp.Vars, z)
			kept := lp.Candidates(snap, i, Range{0, lp.ClassLen(snap, i)})
			for v := range graph.NodeID(snap.NumNodes()) {
				val, _ := g.Attr(v, "val")
				holds := slices.Contains(vals, val)
				if !slices.Contains(kept, v) {
					if holds && pinned(z, v) {
						t.Fatalf("pattern %s, seeded pivot %d, vals %v: node %d has a pinned match, yet Candidates keeps %v", q, z, vals, v, kept)
					}
					continue
				}
				if !holds || !pattern.LabelMatches(q.Nodes[z].Label, g.Label(v)) || !hasStar(g, q, z, v) {
					t.Fatalf("pattern %s, seeded pivot %d, vals %v: Candidates keeps node %d (val %s), which holds no seed or lacks the star", q, z, vals, v, val)
				}
			}
		}
	})
}
