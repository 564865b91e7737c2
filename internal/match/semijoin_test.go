// Differential tests for the semi-join route of the join step: a node
// whose earliest-bound matched neighbour sits two or more depths up filters
// its siblings' runs through a bitset of that neighbour's run. On hub
// shapes that make the fixed run long and the siblings short, and the
// reverse, on an empty fixed run, on the benchmark's cyc4 diamond and on an
// overlay that grows between calls, the matcher must yield exactly the
// probing route's matches in the probing route's order (both bind every
// depth in ascending node order) and the legacy searcher's match set.
package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// hubGraph draws classes A (na nodes), B (nb) and C (nc) wired for the
// triangle a -ab-> b -bc-> c, a -ac-> c. Node a0 is a hub: it reaches
// every B and every C node. bHub further B nodes reach every C node; the
// others reach deg random C nodes, and every other A node deg random B
// and C nodes. A nodes from index na-empty on have no ac-edge at all.
func hubGraph(seed int64, na, nb, nc, deg, bHub, empty int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(0, 0)
	add := func(label string, n int) []graph.NodeID {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = g.AddNode(label, graph.Attrs{"val": fmt.Sprintf("v%d", rng.Intn(4))})
		}
		return ids
	}
	as, bs, cs := add("A", na), add("B", nb), add("C", nc)
	link := func(from graph.NodeID, to []graph.NodeID, label string, k int) {
		for _, i := range rng.Perm(len(to))[:min(k, len(to))] {
			g.MustAddEdge(from, to[i], label)
		}
	}
	for i, a := range as {
		k := deg
		if i == 0 {
			k = max(nb, nc)
		}
		link(a, bs, "ab", k)
		if i < na-empty {
			link(a, cs, "ac", k)
		}
	}
	for i, b := range bs {
		k := deg
		if i < bHub {
			k = nc
		}
		link(b, cs, "bc", k)
	}
	return g
}

// enumerateKeys returns the matches of one enumeration, in order.
func enumerateKeys(m *match.Matcher, q *pattern.Pattern, opts match.Options) []string {
	var keys []string
	m.Enumerate(q, opts, func(h core.Match) bool {
		keys = append(keys, fmt.Sprint([]graph.NodeID(h)))
		return true
	})
	return keys
}

// assertSemiJoin checks the route on m against the probing route (same
// sequence) and the legacy searcher over g (same set), and that the match
// set is not empty.
func assertSemiJoin(t *testing.T, m *match.Matcher, g *graph.Graph, q *pattern.Pattern, opts match.Options, ctx string) {
	t.Helper()
	got := enumerateKeys(m, q, opts)
	probeOpts := opts
	probeOpts.NoIntersect = true
	if want := enumerateKeys(match.NewMatcher(m.Topo()), q, probeOpts); !slices.Equal(got, want) {
		t.Fatalf("%s: %d matches, NoIntersect %d, or a different order", ctx, len(got), len(want))
	}
	legacy := matchKeys(match.All(g, q, opts))
	if sorted := slices.Sorted(slices.Values(got)); !slices.Equal(sorted, legacy) {
		t.Fatalf("%s: %d matches, legacy searcher %d", ctx, len(got), len(legacy))
	}
	if len(got) == 0 {
		t.Fatalf("%s: no matches; the check is vacuous", ctx)
	}
}

// pivoted pins pattern node 0 to its whole class as one list, as an engine
// unit binds its pivot, so the plan starts there.
func pivoted(snap *graph.Snapshot, q *pattern.Pattern) match.Options {
	return match.Options{Pins: []match.Pin{{Node: 0, To: snap.NodesWith(snap.Syms().Lookup(q.Nodes[0].Label))}}}
}

// TestSemiJoinHubShapes: the triangle bound from its a, b second and c
// last, so c's fixed run is a's ac-run. On a hub a it is long and the
// siblings' bc-runs short (it is leapfrogged until they pay for writing
// it); on hub b nodes the siblings are long and it is short; on the last A
// nodes it is empty.
func TestSemiJoinHubShapes(t *testing.T) {
	for _, tc := range []struct {
		name                         string
		na, nb, nc, deg, bHub, empty int
	}{
		{"long fixed, short siblings", 20, 300, 400, 3, 0, 0},
		{"short fixed, long siblings", 40, 60, 300, 4, 12, 0},
		{"empty fixed", 30, 80, 120, 5, 3, 10},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			g := hubGraph(seed, tc.na, tc.nb, tc.nc, tc.deg, tc.bHub, tc.empty)
			snap := g.Freeze()
			q := triPattern()
			m := match.NewMatcher(snap)
			ctx := fmt.Sprintf("%s seed %d", tc.name, seed)
			if order := m.Plan(q, pivoted(snap, q)).Order; !slices.Equal(order, []int{0, 1, 2}) {
				t.Fatalf("%s: plan %v, want a b c", ctx, order)
			}
			assertSemiJoin(t, m, g, q, pivoted(snap, q), ctx)
			assertSemiJoin(t, m, g, q, match.Options{Pins: pinTo(0, 0)}, ctx+" hub pinned")
			if !m.SemiJoined() {
				t.Fatalf("%s: no join took the semi-join route", ctx)
			}
		}
	}
}

// cyc4Diamond is the benchmark's diamond: a:L0 -e0-> b:L1, a -e1-> c:L2,
// b -e2-> d:L0, c -e0-> d. Bound a, b, c, d (or a, c, b, d), d's fixed run
// is read from the node bound at depth 1, with the other one's bindings
// looping between.
func cyc4Diamond() *pattern.Pattern {
	q := pattern.New()
	a, b, c, d := q.AddNode("a", "L0"), q.AddNode("b", "L1"), q.AddNode("c", "L2"), q.AddNode("d", "L0")
	q.AddEdge(a, b, "e0")
	q.AddEdge(a, c, "e1")
	q.AddEdge(b, d, "e2")
	q.AddEdge(c, d, "e0")
	return q
}

// threeLabelGraph is a small power-law graph with the cyclic workloads'
// three node and three edge labels, rotated with the node index.
func threeLabelGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("L%d", i%3), nil)
	}
	pick := func() graph.NodeID { return graph.NodeID(int(float64(n) * rng.Float64() * rng.Float64())) }
	for i := 0; i < m; i++ {
		from, to, l := pick(), pick(), fmt.Sprintf("e%d", rng.Intn(3))
		if from != to && !g.HasEdge(from, to, l) {
			g.MustAddEdge(from, to, l)
		}
	}
	return g
}

// TestSemiJoinCyc4Diamond runs the diamond, and the diamond with a chord
// a -e0-> d, which gives d three matched neighbours: the fixed run from a
// and two sibling runs, leapfrogged before the filter.
func TestSemiJoinCyc4Diamond(t *testing.T) {
	chord := cyc4Diamond()
	chord.AddEdge(0, 3, "e0")
	for i, q := range []*pattern.Pattern{cyc4Diamond(), chord} {
		for seed := int64(1); seed <= 4; seed++ {
			g := threeLabelGraph(seed, 500, 8000)
			snap := g.Freeze()
			m := match.NewMatcher(snap)
			ctx := fmt.Sprintf("shape %d seed %d", i, seed)
			if order := m.Plan(q, pivoted(snap, q)).Order; order[0] != 0 || order[3] != 3 {
				t.Fatalf("%s: plan %v does not bind a first and d last", ctx, order)
			}
			assertSemiJoin(t, m, g, q, pivoted(snap, q), ctx)
			assertSemiJoin(t, m, g, q, match.Options{}, ctx+" unpinned")
			if !m.SemiJoined() {
				t.Fatalf("%s: no join took the semi-join route", ctx)
			}
		}
	}
}

// TestSemiJoinOverlayGrows: one Matcher over an overlay enumerates the
// hub-pinned triangle, then the overlay gains more nodes than the bitset
// has room for, wired into the hub's fixed run and into some siblings'
// runs, and the same Matcher enumerates again, then pinned to another A
// node whose fixed run differs.
func TestSemiJoinOverlayGrows(t *testing.T) {
	g := hubGraph(5, 20, 120, 130, 4, 2, 0)
	ov := graph.NewOverlay(g)
	m := match.NewMatcher(ov)
	q := triPattern()
	hub := match.Options{Pins: pinTo(0, 0)}
	assertSemiJoin(t, m, g, q, hub, "before")
	if !m.SemiJoined() {
		t.Fatal("before: no join took the semi-join route")
	}
	bs := g.NodesWithLabel("B")
	for i := 0; i < 150; i++ {
		c := ov.AddNode("C", nil)
		if i%2 == 0 {
			ov.MustAddEdge(0, c, "ac")
		}
		if i%3 == 0 {
			ov.MustAddEdge(bs[i%len(bs)], c, "bc")
		}
	}
	assertSemiJoin(t, m, g, q, hub, "after growth")
	assertSemiJoin(t, m, g, q, match.Options{Pins: pinTo(0, 1)}, "after growth, another pin")
	assertSemiJoin(t, m, g, q, hub, "after growth, hub again")
}

// TestSemiJoinOverlayPatchedRun: the hub's fixed run is read from its
// patched copy of the adjacency, whose next insert shifts the run in place.
// A Matcher that enumerated over it must enumerate the next call, after
// that insert and pinned to another A node, without a bit of the old run
// left set: c1, in the hub's run but not a1's, closes a triangle with a1
// only if a stale bit admits it.
func TestSemiJoinOverlayPatchedRun(t *testing.T) {
	g := hubGraph(7, 20, 120, 130, 4, 0, 0)
	ov := graph.NewOverlay(g)
	m := match.NewMatcher(ov)
	q := triPattern()
	var b graph.NodeID = -1
	for _, e := range g.Out(1) {
		if e.Label == "ab" {
			b = e.To
		}
	}
	c1 := ov.AddNode("C", nil)
	ov.MustAddEdge(0, c1, "ac")
	ov.MustAddEdge(b, c1, "bc")
	assertSemiJoin(t, m, g, q, match.Options{Pins: pinTo(0, 0)}, "hub")
	if !m.SemiJoined() {
		t.Fatal("hub: no join took the semi-join route")
	}
	ov.MustAddEdge(0, ov.AddNode("B", nil), "ab")
	assertSemiJoin(t, m, g, q, match.Options{Pins: pinTo(0, 1)}, "a1 after the insert")
}

// TestSemiJoinParallelSiblingEdges: a graph that breaks the no-duplicate
// invariant holds parallel bc-edges, adjacent in a sibling's run. The
// filtered scan yields each node once, as the probing route does.
func TestSemiJoinParallelSiblingEdges(t *testing.T) {
	g := hubGraph(3, 10, 60, 80, 5, 2, 0)
	for _, b := range g.NodesWithLabel("B") {
		for _, e := range g.Out(b) {
			if e.Label == "bc" {
				g.MustAddEdge(b, e.To, "bc")
			}
		}
	}
	snap := g.Freeze()
	q := triPattern()
	m := match.NewMatcher(snap)
	got := enumerateKeys(m, q, pivoted(snap, q))
	probeOpts := pivoted(snap, q)
	probeOpts.NoIntersect = true
	if want := enumerateKeys(match.NewMatcher(snap), q, probeOpts); len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("%d matches, NoIntersect %d, or a different order", len(got), len(want))
	}
	if !m.SemiJoined() {
		t.Fatal("no join took the semi-join route")
	}
}
