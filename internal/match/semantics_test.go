// Match semantics the differential table cannot see: set semantics over
// duplicate and parallel edges, pin lists against single pins, bad pins,
// concurrent freezes and labels first seen through an overlay.
package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// TestGeneratorsNoDuplicateEdges enforces the graph type's documented
// invariant on every dataset generator: no duplicate (from, to, label)
// triples. The two enumeration paths agree on match multiplicity exactly
// because of it (see TestDuplicateEdgeSetSemantics). Synthetic and
// PokecLike draw endpoints independently (both deduplicated now), so the
// sweep covers many seeds, not one lucky one.
func TestGeneratorsNoDuplicateEdges(t *testing.T) {
	graphs := diffGraphs()
	graphs["dbpedia"] = gen.DBpediaLike(gen.DatasetConfig{Scale: 60, Seed: 29})
	for seed := int64(0); seed < 30; seed++ {
		graphs[fmt.Sprintf("synthetic/seed=%d", seed)] = gen.Synthetic(
			gen.SyntheticConfig{Nodes: 250, Edges: 700, Skew: 0.6, Seed: seed})
		if seed < 8 {
			graphs[fmt.Sprintf("pokec/seed=%d", seed)] = gen.PokecLike(
				gen.DatasetConfig{Scale: 60, Seed: seed})
		}
	}
	// Post-injection workloads must honor the invariant too: structural
	// noise adds edges (the Fig. 7 motifs), not just attribute noise.
	for seed := int64(0); seed < 8; seed++ {
		g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: seed})
		gen.InjectStructural(g, 10, seed+100)
		graphs[fmt.Sprintf("yago2+structural/seed=%d", seed)] = g
	}
	for name, g := range graphs {
		seen := make(map[graph.Edge]bool, g.NumEdges())
		g.Edges(func(e graph.Edge) bool {
			if seen[e] {
				t.Errorf("%s: duplicate edge %v", name, e)
			}
			seen[e] = true
			return true
		})
	}
}

// TestDuplicateEdgeSetSemantics pins down behavior on graphs that violate
// the no-duplicate-edge invariant: the snapshot matcher yields each match
// h once (set semantics), whereas the legacy path re-yields h once per
// parallel duplicate of the adjacency list it happens to iterate. Only the
// snapshot count is contractual.
func TestDuplicateEdgeSetSemantics(t *testing.T) {
	g := graph.New(3, 3)
	a := g.AddNode("x", nil)
	b := g.AddNode("y", nil)
	c := g.AddNode("z", nil)
	g.MustAddEdge(a, c, "e")
	g.MustAddEdge(a, c, "e") // duplicate triple
	g.MustAddEdge(b, c, "e")
	q := pattern.New()
	va := q.AddNode("va", "x")
	vb := q.AddNode("vb", "y")
	vc := q.AddNode("vc", "z")
	q.AddEdge(va, vc, "e")
	q.AddEdge(vb, vc, "e")
	opts := match.Options{Pins: append(pinTo(va, a), pinTo(vb, b)...)}
	if got := match.NewMatcher(g.Freeze()).Count(q, opts); got != 1 {
		t.Fatalf("snapshot yielded the duplicated match %d times, want 1", got)
	}
}

// TestWildcardEdgeParallelLabels: a wildcard pattern edge admits every
// edge between two nodes, but a match is a node tuple, so two nodes linked
// under several labels still form one match — on both paths, over a frozen
// snapshot and over an overlay that patched the extra labels in, from
// either endpoint.
func TestWildcardEdgeParallelLabels(t *testing.T) {
	g := graph.New(0, 0)
	a := g.AddNode("a", nil)
	b := g.AddNode("b", nil)
	c := g.AddNode("b", nil)
	g.MustAddEdge(a, b, "e")
	g.MustAddEdge(a, c, "f")
	ov := graph.NewOverlay(g)
	ov.MustAddEdge(a, b, "f")
	ov.MustAddEdge(a, b, "g")
	ov.MustAddEdge(a, c, "e")
	q := pattern.New()
	x := q.AddNode("x", "a")
	y := q.AddNode("y", pattern.Wildcard)
	q.AddEdge(x, y, pattern.Wildcard)
	for i, pin := range [][]match.Pin{nil, pinTo(x, a), pinTo(y, b)} {
		opts := match.Options{Pins: pin}
		want := 2
		if i == 2 {
			want = 1
		}
		check(t, row{name: fmt.Sprint("pin ", pin), g: g, q: q, opts: opts})
		for name, n := range map[string]int{
			"legacy":  len(match.All(g, q, opts)),
			"frozen":  match.NewMatcher(g.Freeze()).Count(q, opts),
			"overlay": match.NewMatcher(ov.Snapshot).Count(q, opts),
		} {
			if n != want {
				t.Errorf("pin %v: %s yielded %d matches, want %d", pin, name, n, want)
			}
		}
	}
}

// TestWildcardEdgeRecurringNeighbours: a wildcard pattern edge iterates
// the bound node's whole range, where a neighbour linked under several
// edge labels recurs once per label, each time inside the run of its own
// node label. Each neighbour must still be tried once — for a wildcard and
// for a concrete target node label, from either side, frozen and patched.
func TestWildcardEdgeRecurringNeighbours(t *testing.T) {
	g := graph.New(0, 0)
	hub := g.AddNode("a", nil)
	var nbrs []graph.NodeID
	for i, l := range []string{"q", "p", "q", "p", "r", "p"} {
		nbrs = append(nbrs, g.AddNode(l, nil))
		for _, el := range []string{"e", "f", "g"}[:1+i%3] {
			g.MustAddEdge(hub, nbrs[i], el)
			g.MustAddEdge(nbrs[i], hub, el)
		}
	}
	ov := graph.NewOverlay(g.Clone())
	late := ov.AddNode("p", nil)
	ov.MustAddEdge(hub, late, "g")
	ov.MustAddEdge(hub, late, "e")
	ov.MustAddEdge(late, hub, "f")
	for _, target := range []string{pattern.Wildcard, "p"} {
		for _, out := range []bool{true, false} {
			q := pattern.New()
			x, y := q.AddNode("x", "a"), q.AddNode("y", target)
			if out {
				q.AddEdge(x, y, pattern.Wildcard)
			} else {
				q.AddEdge(y, x, pattern.Wildcard)
			}
			want := 6
			if target == "p" {
				want = 3
			}
			ctx := fmt.Sprintf("target %s out %v", target, out)
			check(t, row{name: ctx, g: g, q: q})
			if n := match.NewMatcher(g.Freeze()).Count(q, match.Options{}); n != want {
				t.Errorf("%s: frozen yielded %d matches, want %d", ctx, n, want)
			}
			if n := match.NewMatcher(ov.Snapshot).Count(q, match.Options{}); n != want+1 {
				t.Errorf("%s: overlay yielded %d matches, want %d", ctx, n, want+1)
			}
		}
	}
}

// TestConcurrentFreeze covers the read-only concurrency contract: parallel
// Freeze/Enumerate on a shared, unmutated graph (as concurrent
// gfd.Validate calls would do) must be race-free and agree.
func TestConcurrentFreeze(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	q := starPattern()
	want := match.NewMatcher(g.Freeze()).Count(q, match.Options{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := match.NewMatcher(g.Freeze()).Count(q, match.Options{}); got != want {
				t.Errorf("concurrent count %d, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

// nodeRun is a run of up to k node IDs from a random start, some of the
// wrong label, in ascending order as a chunk binds its pivot.
func nodeRun(g *graph.Graph, rng *rand.Rand, k int) []graph.NodeID {
	lo := rng.Intn(g.NumNodes())
	run := make([]graph.NodeID, 0, k)
	for v := lo; v < min(g.NumNodes(), lo+k); v++ {
		run = append(run, graph.NodeID(v))
	}
	return run
}

// TestPinListBindsLikeSinglePins: pinning a pattern node to a list yields,
// in list order, exactly the matches of pinning it to each listed node in
// turn — alone, ahead of another pin and under a stripe; two list pins
// yield their cross product, the first pin outermost; the legacy searcher
// yields the same matches on every trial; an empty list yields nothing and
// a repeated entry yields its matches twice.
func TestPinListBindsLikeSinglePins(t *testing.T) {
	total, crossed, doubled := 0, 0, 0
	for name, g := range diffGraphs() {
		m := match.NewMatcher(g.Freeze())
		rng := rand.New(rand.NewSource(41))
		for trial := 0; trial < 20; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), true)
			z := rng.Intn(q.NumNodes())
			other := (z + 1) % q.NumNodes()
			list := nodeRun(g, rng, 128)
			base := match.Options{}
			var rest []match.Pin // a single pin bound after the list
			switch trial % 3 {
			case 1:
				base = match.Options{StripeNode: other, StripeMod: 2, StripeRem: trial % 2}
			case 2:
				if oc := g.NodesWithLabel(q.Nodes[other].Label); len(oc) > 0 {
					rest = pinTo(other, oc[rng.Intn(len(oc))])
				}
			}
			ctx := fmt.Sprintf("%s trial %d, node %d bound to %v beside %v", name, trial, z, list, rest)
			bind := func(pins ...match.Pin) []core.Match {
				opts := base
				opts.Pins = pins
				got := m.All(q, opts)
				if legacy := match.All(g, q, opts); !slices.Equal(matchKeys(got), matchKeys(legacy)) {
					t.Fatalf("%s, pins %v: %d matches, the legacy searcher %d", ctx, pins, len(got), len(legacy))
				}
				return got
			}

			var want []core.Match
			for _, v := range list {
				want = append(want, bind(append(pinTo(z, v), rest...)...)...)
			}
			if got := bind(append([]match.Pin{{Node: z, To: list}}, rest...)...); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: the list yields %d matches, one pin per node %d", ctx, len(got), len(want))
			}
			total += len(want)

			// Two lists: the nodes the list's matches bind at z and at other,
			// each beside its successor, which may not match.
			var heads, tails []graph.NodeID
			for _, h := range want {
				heads = append(heads, h[z], min(h[z]+1, graph.NodeID(g.NumNodes()-1)))
				tails = append(tails, h[other], min(h[other]+1, graph.NodeID(g.NumNodes()-1)))
			}
			slices.Sort(heads)
			slices.Sort(tails)
			heads, tails = slices.Compact(heads), slices.Compact(tails)
			heads, tails = heads[:min(len(heads), 8)], tails[:min(len(tails), 8)]
			want = nil
			for _, v := range heads {
				for _, w := range tails {
					want = append(want, bind(match.Pin{Node: z, To: []graph.NodeID{v}}, match.Pin{Node: other, To: []graph.NodeID{w}})...)
				}
			}
			if got := bind(match.Pin{Node: z, To: heads}, match.Pin{Node: other, To: tails}); !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: lists %v × %v yield %d matches, their cross product %d", ctx, heads, tails, len(got), len(want))
			}
			crossed += len(want)

			if n := len(bind(match.Pin{Node: z, To: []graph.NodeID{}})); n != 0 {
				t.Fatalf("%s: an empty list yields %d matches", ctx, n)
			}
			if n := len(bind(match.Pin{Node: z, To: list}, match.Pin{Node: other, To: nil})); n != 0 {
				t.Fatalf("%s: an empty second list yields %d matches", ctx, n)
			}
			for _, v := range list {
				once := bind(pinTo(z, v)...)
				if len(once) == 0 {
					continue
				}
				if twice := bind(match.Pin{Node: z, To: []graph.NodeID{v, v}}); !slices.EqualFunc(twice, append(once, once...), slices.Equal) {
					t.Fatalf("%s: node %d listed twice yields %d matches, once %d", ctx, v, len(twice), len(once))
				}
				doubled++
				break
			}
		}
	}
	if total == 0 || crossed == 0 || doubled == 0 {
		t.Fatalf("lists %d, cross products %d, doubled entries %d matches: a comparison is vacuous", total, crossed, doubled)
	}
}

// TestPinsRejectBadNodes: a pattern node pinned twice, or a pin outside the
// pattern, panics in both searchers with a message that names the node.
func TestPinsRejectBadNodes(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 20, Seed: 3})
	q := starPattern()
	one := []graph.NodeID{0}
	for _, c := range []struct {
		pins []match.Pin
		node string
	}{
		{[]match.Pin{{Node: 1, To: one}, {Node: 0, To: one}, {Node: 1, To: nil}}, "node 1"},
		{[]match.Pin{{Node: q.NumNodes(), To: one}}, fmt.Sprintf("node %d", q.NumNodes())},
		{[]match.Pin{{Node: 0, To: one}, {Node: -1, To: one}}, "node -1"},
	} {
		for searcher, run := range map[string]func(){
			"matcher": func() { match.NewMatcher(g.Freeze()).Count(q, match.Options{Pins: c.pins}) },
			"legacy":  func() { match.Count(g, q, match.Options{Pins: c.pins}) },
		} {
			func() {
				defer func() {
					if msg := fmt.Sprint(recover()); !strings.Contains(msg, c.node+" ") {
						t.Errorf("%s, pins %v: panic %q does not name %s", searcher, c.pins, msg, c.node)
					}
				}()
				run()
			}()
		}
	}
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
	got := keys(m, q, pivoted(snap, q))
	probeOpts := pivoted(snap, q)
	probeOpts.NoIntersect = true
	if want := keys(match.NewMatcher(snap), q, probeOpts); len(got) == 0 || !slices.Equal(got, want) {
		t.Fatalf("%d matches, NoIntersect %d, or a different order", len(got), len(want))
	}
	if !m.SemiJoined() {
		t.Fatal("no join took the semi-join route")
	}
}

// TestOverlayMatcherSeesNewLabel: one Matcher kept over the live overlay
// enumerates a pattern whose labels the symbol table has never interned —
// they lower to NoSym and match nothing — and, after updates insert a node
// and an edge carrying those labels, finds them. The matcher's Plans
// interns a pattern's labels before lowering it on a patched view, so the
// lowering made before the updates already holds their codes.
func TestOverlayMatcherSeesNewLabel(t *testing.T) {
	g := graph.New(0, 0)
	owner := g.AddNode("person", nil)
	g.AddNode("person", nil)
	ov := graph.NewOverlay(g)
	m := match.NewMatcher(ov)

	lone := pattern.New()
	lone.AddNode("y", "gadget")
	owns := pattern.New()
	x := owns.AddNode("x", "person")
	y := owns.AddNode("y", "gadget")
	owns.AddEdge(x, y, "owns")

	if ov.Syms().Lookup("gadget") != graph.NoSym || ov.Syms().Lookup("owns") != graph.NoSym {
		t.Fatal("fixture: the pattern's labels must be absent from the table")
	}
	for _, q := range []*pattern.Pattern{lone, owns} {
		if n := m.Count(q, match.Options{}); n != 0 {
			t.Fatalf("%v: %d matches before any gadget exists", q, n)
		}
	}
	gadget := ov.AddNode("gadget", nil)
	if got := m.All(lone, match.Options{}); len(got) != 1 || got[0][0] != gadget {
		t.Fatalf("after AddNode: lone gadget matches %v, want [[%d]]", got, gadget)
	}
	if n := m.Count(owns, match.Options{}); n != 0 {
		t.Fatalf("%d owns matches before the edge exists", n)
	}
	ov.MustAddEdge(owner, gadget, "owns")
	if got := m.All(owns, match.Options{}); len(got) != 1 || got[0][x] != owner || got[0][y] != gadget {
		t.Fatalf("after AddEdge: owns matches %v, want [[%d %d]]", got, owner, gadget)
	}
}
