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
// from {a, b}, edge labels from {e, f}, self-loops allowed in both and
// parallel edges in the pattern, which also draws the wildcard for node
// and edge labels and may fall into several components. Missing bytes read
// as zero.
func fuzzInstance(data []byte) (*graph.Graph, *pattern.Pattern) {
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
	return g, q
}

// FuzzPivotCandidates: on a small graph and pattern built from the input,
// every node with a match pinned at a component's pivot survives
// CandidatesIn, for the min-radius pivot and for a pivot at each pattern
// node (Seed with no filter, as a seeded group pivots where its constant
// sits).
func FuzzPivotCandidates(f *testing.F) {
	f.Add([]byte{})
	// Two parallel x0→x1 edges (Fig. 7 GFD 1) over a graph that has them.
	f.Add([]byte{2, 0, 1, 2, 0, 1, 0, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 0, 0, 1, 1})
	// A self-loop at the pivot beside a wildcard neighbour.
	f.Add([]byte{3, 0, 0, 1, 3, 0, 0, 0, 0, 1, 0, 2, 1, 1, 2, 3, 0, 2, 0, 0, 0, 0, 1, 0})
	// x0→x1 together with x1→x0, and a wildcard edge label.
	f.Add([]byte{2, 1, 0, 3, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 2, 0, 1, 3, 0, 1, 0, 1, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q := fuzzInstance(data)
		snap := g.Freeze()
		m := match.NewMatcher(snap)
		pivots := []*Pivot{ComputePivot(q)}
		for z := range q.NumNodes() {
			pv := ComputePivot(q)
			pv.Seed(z, Filter{})
			pivots = append(pivots, pv)
		}
		for _, pv := range pivots {
			for i, z := range pv.Vars {
				kept := pv.CandidatesIn(snap, i)
				for v := range graph.NodeID(snap.NumNodes()) {
					if !slices.Contains(kept, v) && len(m.All(q, match.Options{Limit: 1, Pins: []match.Pin{{Node: z, To: []graph.NodeID{v}}}})) > 0 {
						t.Fatalf("pattern %s, pivot %d: node %d has a pinned match, yet CandidatesIn keeps %v", q, z, v, kept)
					}
				}
			}
		}
	})
}
