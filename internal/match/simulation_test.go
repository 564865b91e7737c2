package match

import (
	"fmt"
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
		if sim[0].Len() != 2 {
			t.Errorf("%s: sim(f) = %d, want 2", name, sim[0].Len())
		}
		// Only the two from-cities simulate c (to-cities lack an incoming
		// 'from' edge).
		if sim[1].Len() != 2 {
			t.Errorf("%s: sim(c) = %d, want 2", name, sim[1].Len())
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
				if _, ok := sim[u][v]; !ok {
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
		if sim[0].Len() != 1 {
			t.Errorf("%s: sim(x) = %v, want only the connected 'a'", name, sim[0].Sorted())
		}
		if !sim[0].Contains(a) {
			t.Errorf("%s: connected 'a' pruned incorrectly", name)
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
		if fmt.Sprint(got[u].Sorted()) != fmt.Sprint(want[u].Sorted()) {
			t.Errorf("sim(%d): overlay %v, freeze %v", u, got[u].Sorted(), want[u].Sorted())
		}
	}
	if got[0].Len() != 3 || !got[0].Contains(lone) || !got[0].Contains(fresh) {
		t.Errorf("sim(x) = %v, want every 'a' with an e-edge to a 'b'", got[0].Sorted())
	}
}

func TestSimulateRespectsBlock(t *testing.T) {
	g := buildG1()
	q := pattern.New()
	flightComponent(q, "x")
	flights := g.NodesWithLabel("flight")
	block := graph.NewNodeSet(g.Neighborhood(flights[0], 1))
	for name, s := range simViews(g) {
		sim := Simulate(s, pattern.Compile(q, s.Syms()), block)
		if sim[0].Len() != 1 || !sim[0].Contains(flights[0]) {
			t.Errorf("%s: block-restricted sim(x) = %v", name, sim[0].Sorted())
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
		if sim[0].Len() != 0 || sim[1].Len() != 0 {
			t.Errorf("%s: chain cannot simulate a cycle: %v %v", name, sim[0].Sorted(), sim[1].Sorted())
		}
	}
}
