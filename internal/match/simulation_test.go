package match

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// simViews returns g's frozen snapshot and the patched view of an empty
// overlay over a clone: Simulate must read both alike.
func simViews(g *graph.Graph) map[string]*graph.Snapshot {
	return map[string]*graph.Snapshot{
		"freeze":  g.Freeze(),
		"overlay": graph.NewOverlay(g.Clone()).View(),
	}
}

func TestSimulateBasic(t *testing.T) {
	q := pattern.New()
	f := q.AddNode("f", "flight")
	c := q.AddNode("c", "city")
	q.AddEdge(f, c, "from")

	for name, s := range simViews(buildG1()) {
		sim := Simulate(s, pattern.Compile(q, s.Syms()), nil)
		// Both flights have a from-city: sim(f) = 2 flights.
		if len(sim[0]) != 2 {
			t.Errorf("%s: sim(f) = %v, want 2 flights", name, sim[0])
		}
		// Only the two from-cities simulate c (to-cities lack an incoming
		// 'from' edge).
		if len(sim[1]) != 2 {
			t.Errorf("%s: sim(c) = %v, want 2 cities", name, sim[1])
		}
	}
}

func TestSimulateOverApproximatesIso(t *testing.T) {
	g := buildG1()
	q := pattern.New()
	flightComponent(q, "x")
	for name, s := range simViews(g) {
		sim := Simulate(s, pattern.Compile(q, s.Syms()), nil)
		for _, m := range All(g, q, Options{}) {
			for u, v := range m {
				if _, ok := slices.BinarySearch(sim[u], v); !ok {
					t.Fatalf("%s: match node %d for pattern %d missing from simulation", name, v, u)
				}
			}
		}
	}
}

func TestSimulatePrunesDanglingCandidates(t *testing.T) {
	g := graph.New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	g.AddNode("a", nil) // isolated 'a' node: cannot simulate
	g.MustAddEdge(a, b, "e")

	q := pattern.New()
	x := q.AddNode("x", "a")
	y := q.AddNode("y", "b")
	q.AddEdge(x, y, "e")

	for name, s := range simViews(g) {
		sim := Simulate(s, pattern.Compile(q, s.Syms()), nil)
		if !slices.Equal(sim[0], []graph.NodeID{a}) {
			t.Errorf("%s: sim(x) = %v, want only the connected 'a'", name, sim[0])
		}
	}
}

// TestSimulateOverlayPatch: on a patched view, simulation follows the
// overlay's inserted nodes and edges, and equals simulation on a fresh
// freeze of the mutated graph.
func TestSimulateOverlayPatch(t *testing.T) {
	g := graph.New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	lone := g.AddNode("a", nil)
	g.MustAddEdge(a, b, "e")
	q := pattern.New()
	x := q.AddNode("x", "a")
	y := q.AddNode("y", "b")
	q.AddEdge(x, y, "e")

	ov := graph.NewOverlay(g)
	ov.MustAddEdge(lone, b, "e")
	fresh := ov.AddNode("a", nil)
	ov.MustAddEdge(fresh, ov.AddNode("b", nil), "e")
	view, frozen := ov.View(), g.Clone().Freeze()
	got := Simulate(view, pattern.Compile(q, view.Syms()), nil)
	want := Simulate(frozen, pattern.Compile(q, frozen.Syms()), nil)
	for u := range want {
		if !slices.Equal(got[u], want[u]) {
			t.Errorf("sim(%d): overlay %v, freeze %v", u, got[u], want[u])
		}
	}
	if !slices.Equal(got[0], []graph.NodeID{a, lone, fresh}) {
		t.Errorf("sim(x) = %v, want every 'a' with an e-edge to a 'b'", got[0])
	}
}

func TestSimulateRespectsBlock(t *testing.T) {
	g := buildG1()
	q := pattern.New()
	flightComponent(q, "x")
	flights := g.NodesWithLabel("flight")
	for name, s := range simViews(g) {
		block := graph.NewEpochSet(s.NumNodes())
		s.BlockInto(block, flights[0], 1)
		sim := Simulate(s, pattern.Compile(q, s.Syms()), block)
		if !slices.Equal(sim[0], []graph.NodeID{flights[0]}) {
			t.Errorf("%s: block-restricted sim(x) = %v", name, sim[0])
		}
	}
}

func TestSimulateCyclicPattern(t *testing.T) {
	// A directed 2-cycle pattern over a graph with only a chain: empty sim.
	g := graph.New(0, 0)
	a := g.AddNode("n", nil)
	b := g.AddNode("n", nil)
	g.MustAddEdge(a, b, "e")

	q := pattern.New()
	x := q.AddNode("x", "n")
	y := q.AddNode("y", "n")
	q.AddEdge(x, y, "e")
	q.AddEdge(y, x, "e")

	for name, s := range simViews(g) {
		sim := Simulate(s, pattern.Compile(q, s.Syms()), nil)
		if len(sim[0]) != 0 || len(sim[1]) != 0 {
			t.Errorf("%s: chain cannot simulate a cycle: %v %v", name, sim[0], sim[1])
		}
	}
}

// nodeSet is the reference's set: a nil nodeSet contains every node.
type nodeSet map[graph.NodeID]struct{}

func (s nodeSet) contains(v graph.NodeID) bool {
	if s == nil {
		return true
	}
	_, ok := s[v]
	return ok
}

// simulateRef is the map fixpoint Simulate was first written as: it deletes
// from hash sets while iterating them and tests the block on every
// successor. The flat sets are checked against it.
func simulateRef(s *graph.Snapshot, cq *pattern.Compiled, block nodeSet) [][]graph.NodeID {
	n := cq.Q.NumNodes()
	sim := make([]nodeSet, n)
	for u := 0; u < n; u++ {
		sim[u] = make(nodeSet)
		if l := cq.NodeSyms[u]; l == graph.WildcardSym {
			for v := 0; v < s.NumNodes(); v++ {
				if block.contains(graph.NodeID(v)) {
					sim[u][graph.NodeID(v)] = struct{}{}
				}
			}
		} else {
			for _, v := range s.NodesWith(l) {
				if block.contains(v) {
					sim[u][v] = struct{}{}
				}
			}
		}
	}
	feasible := func(u int, v graph.NodeID) bool {
		has := func(adj []graph.CSREdge, target nodeSet) bool {
			for _, e := range adj {
				if block.contains(e.To) && target.contains(e.To) {
					return true
				}
			}
			return false
		}
		for _, ei := range cq.Q.OutEdges(u) {
			e := cq.Edges[ei]
			if !has(s.OutWithNbr(v, e.Label, cq.NodeSyms[e.To]), sim[e.To]) {
				return false
			}
		}
		for _, ei := range cq.Q.InEdges(u) {
			e := cq.Edges[ei]
			if !has(s.InWithNbr(v, e.Label, cq.NodeSyms[e.From]), sim[e.From]) {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			for v := range sim[u] {
				if !feasible(u, v) {
					delete(sim[u], v)
					changed = true
				}
			}
		}
	}
	out := make([][]graph.NodeID, n)
	for u := range sim {
		out[u] = slices.Sorted(maps.Keys(sim[u]))
	}
	return out
}

// TestSimulateMatchesReference compares Simulate with the map fixpoint on
// random small graphs and patterns: wildcard pattern nodes, cyclic
// patterns and pattern self-loops; no block, blocks that are unions of
// several BlockInto fills (one set reused across blocks), on a frozen
// snapshot and on an overlay's patched view.
func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	labels, edgeLabels := []string{"a", "b", "c"}, []string{"e", "f"}
	pick := func(pool []string, wildcards bool) string {
		if wildcards && rng.Intn(4) == 0 {
			return pattern.Wildcard
		}
		return pool[rng.Intn(len(pool))]
	}
	for trial := 0; trial < 150; trial++ {
		n := 4 + rng.Intn(20)
		g := graph.New(n, 0)
		for i := 0; i < n; i++ {
			g.AddNode(pick(labels, false), nil)
		}
		for i := 0; i < 2*n; i++ {
			from, to, l := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), pick(edgeLabels, false)
			if !g.HasEdge(from, to, l) {
				g.MustAddEdge(from, to, l)
			}
		}
		views := map[string]*graph.Snapshot{"freeze": g.Freeze()}
		ov := graph.NewOverlay(g.Clone())
		for i := 0; i < 1+rng.Intn(4); i++ {
			ov.AddNode(pick(labels, false), nil)
		}
		for i := 0; i < 2+rng.Intn(6); i++ {
			from, to, l := graph.NodeID(rng.Intn(ov.NumNodes())), graph.NodeID(rng.Intn(ov.NumNodes())), pick(edgeLabels, false)
			if !ov.Graph().HasEdge(from, to, l) {
				ov.MustAddEdge(from, to, l)
			}
		}
		views["overlay"] = ov.View()

		wildcards := trial%2 == 1
		q := pattern.New()
		nq := 2 + rng.Intn(3)
		for i := 0; i < nq; i++ {
			q.AddNode(pattern.Var(fmt.Sprintf("v%d", i)), pick(labels, wildcards))
		}
		for i := 1; i < nq; i++ {
			from, to := rng.Intn(i), i
			if rng.Intn(2) == 0 {
				from, to = to, from
			}
			q.AddEdge(from, to, pick(edgeLabels, wildcards))
		}
		for extra := rng.Intn(3); extra > 0; extra-- { // closes cycles, or a self-loop
			q.AddEdge(rng.Intn(nq), rng.Intn(nq), pick(edgeLabels, wildcards))
		}

		for name, s := range views {
			cq := pattern.Compile(q, s.Syms())
			check := func(what string, block *graph.EpochSet, ref nodeSet) {
				t.Helper()
				got, want := Simulate(s, cq, block), simulateRef(s, cq, ref)
				for u := range want {
					if !slices.Equal(got[u], want[u]) {
						t.Fatalf("trial %d %s %s, pattern %v: sim(%d) = %v, reference %v", trial, name, what, q, u, got[u], want[u])
					}
				}
			}
			check("no block", nil, nil)
			block := graph.NewEpochSet(s.NumNodes())
			for b := 0; b < 3; b++ {
				block.Reset()
				ref := make(nodeSet)
				for k := 1 + rng.Intn(3); k > 0; k-- {
					start, radius := graph.NodeID(rng.Intn(s.NumNodes())), rng.Intn(3)
					s.BlockInto(block, start, radius)
					for _, v := range s.Neighborhood(start, radius) {
						ref[v] = struct{}{}
					}
				}
				check(fmt.Sprintf("block %d", b), block, ref)
			}
		}
	}
}
