package match_test

import (
	"fmt"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// pinnedInstance decodes a small graph, a pattern and the options that pin
// it from data. The graph has up to 12 nodes labelled from {a, b} and
// edges labelled from {e, f}, self-loops and parallel edges under distinct
// labels allowed; the pattern has up to 4 nodes and draws the wildcard for
// node and edge labels too. Then one to three pins on distinct pattern
// nodes, each a list of 0–4 graph nodes (repeats allowed), and an optional
// stripe. Missing bytes read as zero. The graph and pattern bytes are laid
// out as FuzzPivotCandidates' in internal/workload, so its shapes seed
// this target.
func pinnedInstance(data []byte) (*graph.Graph, *pattern.Pattern, match.Options) {
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
	nodes := 1 + next(12)
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[next(2)], graph.Attrs{"val": fmt.Sprint(i)})
	}
	for i := next(24); i > 0; i-- {
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
	var opts match.Options
	for i := 1 + next(3); i > 0 && len(opts.Pins) < qn; i-- {
		u := next(qn)
		for slices.ContainsFunc(opts.Pins, func(p match.Pin) bool { return p.Node == u }) {
			u = (u + 1) % qn
		}
		to := make([]graph.NodeID, next(5))
		for k := range to {
			to[k] = graph.NodeID(next(nodes))
		}
		opts.Pins = append(opts.Pins, match.Pin{Node: u, To: to})
	}
	if next(2) == 1 {
		opts.StripeNode, opts.StripeMod = next(qn), 2+next(2)
		opts.StripeRem = next(opts.StripeMod)
	}
	return g, q, opts
}

// FuzzPinnedEnumerate: on a small graph, pattern and pin lists built from
// the input, the Matcher yields the legacy searcher's matches, compared as
// sorted lists with duplicates kept (the two may order them differently),
// and each yields the first pin's nodes in list order.
func FuzzPinnedEnumerate(f *testing.F) {
	f.Add([]byte{})
	// FuzzPivotCandidates' shapes, each followed by pins: two parallel
	// x0→x1 edges with x0 bound to [0 1 0], then x1 to [2 1];
	f.Add([]byte{2, 0, 1, 2, 0, 1, 0, 0, 1, 1, 2, 0, 1, 0, 2, 0, 1, 0, 0, 1, 1, 1, 0, 3, 0, 1, 0, 1, 2, 2, 1})
	// a self-loop at x0 beside a wildcard neighbour, x0 bound to [0 0 1 2]
	// under a stripe of x1;
	f.Add([]byte{3, 0, 0, 1, 3, 0, 0, 0, 0, 1, 0, 2, 1, 1, 2, 3, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 1, 2, 1, 1, 0, 1})
	// x0→x1 together with x1→x0 and a wildcard edge label, x1 bound to
	// [1 0], x0 to [] and then to nothing else.
	f.Add([]byte{2, 1, 0, 3, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 2, 0, 1, 3, 0, 1, 0, 1, 0, 1, 1, 2, 1, 1, 2, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, q, opts := pinnedInstance(data)
		got := match.NewMatcher(g.Freeze()).All(q, opts)
		legacy := match.All(g, q, opts)
		if !slices.Equal(matchKeys(got), matchKeys(legacy)) {
			t.Fatalf("pattern %s, options %+v: the Matcher yields %v, the legacy searcher %v", q, opts, got, legacy)
		}
		first := opts.Pins[0]
		for i, ms := range [][]core.Match{got, legacy} {
			at := 0
			for _, h := range ms {
				for at < len(first.To) && first.To[at] != h[first.Node] {
					at++
				}
				if at == len(first.To) {
					t.Fatalf("pattern %s, options %+v: the %s yields %v out of the first pin's list order", q, opts, []string{"Matcher", "legacy searcher"}[i], ms)
				}
			}
		}
	})
}
