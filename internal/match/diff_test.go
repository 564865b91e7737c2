// Differential property tests: enumeration over a frozen Snapshot must
// yield exactly the same match set as the slice-backed reference path, on
// randomly generated graphs, across every Options dimension (pinning,
// striping, wildcards, limits).
package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// matchKeys canonicalizes a match set for order-insensitive comparison.
func matchKeys(ms []core.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprint([]graph.NodeID(m))
	}
	sort.Strings(keys)
	return keys
}

func assertSameMatches(t *testing.T, g *graph.Graph, q *pattern.Pattern, opts match.Options, ctx string) {
	t.Helper()
	legacy := matchKeys(match.All(g, q, opts))
	snap := matchKeys(match.NewMatcher(g.Freeze()).All(q, opts))
	if len(legacy) != len(snap) {
		t.Fatalf("%s: legacy found %d matches, snapshot %d", ctx, len(legacy), len(snap))
	}
	for i := range legacy {
		if legacy[i] != snap[i] {
			t.Fatalf("%s: match sets differ at %d: legacy %s vs snapshot %s", ctx, i, legacy[i], snap[i])
		}
	}
}

// randomPattern draws a small connected pattern whose labels come from the
// graph (plus occasional wildcards), so it has a chance of matching.
func randomPattern(g *graph.Graph, rng *rand.Rand, nodes int, wildcards bool) *pattern.Pattern {
	labels := g.Labels()
	edgeLabels := map[string]bool{}
	g.Edges(func(e graph.Edge) bool {
		edgeLabels[e.Label] = true
		return len(edgeLabels) < 20
	})
	var els []string
	for l := range edgeLabels {
		els = append(els, l)
	}
	sort.Strings(els)
	pick := func(pool []string) string {
		if wildcards && rng.Intn(4) == 0 {
			return pattern.Wildcard
		}
		return pool[rng.Intn(len(pool))]
	}
	q := pattern.New()
	for i := 0; i < nodes; i++ {
		q.AddNode(pattern.Var(fmt.Sprintf("v%d", i)), pick(labels))
	}
	// Spanning-tree edges keep it connected; a few extras add constraints.
	for i := 1; i < nodes; i++ {
		from, to := rng.Intn(i), i
		if rng.Intn(2) == 0 {
			from, to = to, from
		}
		q.AddEdge(from, to, pick(els))
	}
	if nodes > 2 && rng.Intn(2) == 0 {
		q.AddEdge(rng.Intn(nodes), rng.Intn(nodes), pick(els))
	}
	return q
}

// pinTo pins pattern node u to graph node v alone.
func pinTo(u int, v graph.NodeID) []match.Pin {
	return []match.Pin{{Node: u, To: []graph.NodeID{v}}}
}

func diffGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"synthetic": gen.Synthetic(gen.SyntheticConfig{Nodes: 250, Edges: 700, Skew: 0.6, Seed: 11}),
		"yago2":     gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 7}),
		"pokec":     gen.PokecLike(gen.DatasetConfig{Scale: 80, Seed: 19}),
	}
}

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
		assertSameMatches(t, g, q, opts, fmt.Sprint("pin ", pin))
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
			assertSameMatches(t, g, q, match.Options{}, ctx)
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

func TestDifferentialRandomPatterns(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
			n := 2 + rng.Intn(3)
			q := randomPattern(g, rng, n, trial%2 == 1)
			assertSameMatches(t, g, q, match.Options{},
				fmt.Sprintf("%s trial %d q=%s", name, trial, q))
		}
	}
}

func TestDifferentialPinned(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 20; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), false)
			// Pin node 0 to a few of its legacy candidates (and one
			// hopeless node to exercise the empty case).
			cands := g.NodesWithLabel(q.Nodes[0].Label)
			if len(cands) == 0 {
				cands = []graph.NodeID{0}
			}
			for i := 0; i < 3 && i < len(cands); i++ {
				pin := pinTo(0, cands[(i*7)%len(cands)])
				assertSameMatches(t, g, q, match.Options{Pins: pin},
					fmt.Sprintf("%s trial %d pin=%v", name, trial, pin))
			}
		}
	}
}

func TestDifferentialStriped(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 12; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), false)
			mod := 2 + rng.Intn(3)
			node := rng.Intn(q.NumNodes())
			total := 0
			for rem := 0; rem < mod; rem++ {
				opts := match.Options{StripeNode: node, StripeMod: mod, StripeRem: rem}
				assertSameMatches(t, g, q, opts,
					fmt.Sprintf("%s trial %d stripe %d/%d", name, trial, rem, mod))
				total += match.NewMatcher(g.Freeze()).Count(q, opts)
			}
			// Residues must partition the unstriped match set.
			if all := match.NewMatcher(g.Freeze()).Count(q, match.Options{}); total != all {
				t.Fatalf("%s trial %d: stripes sum to %d, unstriped %d", name, trial, total, all)
			}
		}
	}
}

func TestDifferentialLimit(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		q := randomPattern(g, rng, 2+rng.Intn(2), false)
		all := match.Count(g, q, match.Options{})
		for _, limit := range []int{1, 2, 5} {
			want := min(limit, all)
			if got := match.NewMatcher(g.Freeze()).Count(q, match.Options{Limit: limit}); got != want {
				t.Fatalf("trial %d limit %d: snapshot count %d, want %d", trial, limit, got, want)
			}
		}
	}
}

// TestDifferentialMinedRules runs the full mined-rule patterns (the
// engines' real workload, including two-component symmetric patterns)
// through both paths.
func TestDifferentialMinedRules(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 50, Seed: 21})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.5, Seed: 9})
	for _, f := range set.Rules() {
		assertSameMatches(t, g, f.Q, match.Options{}, "rule "+f.Name)
	}
}

// TestMatcherZeroAllocSteadyState proves the acceptance criterion: after
// warm-up, a snapshot-backed enumeration performs zero allocations — and
// so does a guarded one, on the snapshot, on an empty overlay and on one
// patched by updates, once the guarded plan is cached, and so do a
// triangle and the cyc4 diamond, whose closing joins take the semi-join
// route.
func TestMatcherZeroAllocSteadyState(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: 1})
	q := pattern.New()
	f := q.AddNode("f", "flight")
	id := q.AddNode("i", "id")
	from := q.AddNode("c", "city")
	q.AddEdge(f, id, "number")
	q.AddEdge(f, from, "from")

	snap := g.Freeze()
	count := 0
	yield := func(core.Match) bool { count++; return true }
	steadyQ := func(name string, m *match.Matcher, q *pattern.Pattern, opts match.Options) {
		t.Helper()
		count = 0
		m.Enumerate(q, opts, yield) // warm-up: compile, plan cache, buffers
		if count == 0 {
			t.Fatalf("%s: workload has no matches; allocation test is vacuous", name)
		}
		allocs := testing.AllocsPerRun(20, func() {
			m.Enumerate(q, opts, yield)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state Enumerate allocated %.1f times per run, want 0", name, allocs)
		}
	}
	steady := func(name string, m *match.Matcher, opts match.Options) {
		t.Helper()
		steadyQ(name, m, q, opts)
	}
	steady("snapshot", match.NewMatcher(snap), match.Options{})
	for _, c := range []struct {
		name string
		g    *graph.Graph
		q    *pattern.Pattern
	}{
		{"semi-join triangle", hubGraph(1, 20, 300, 400, 3, 4, 2), triPattern()},
		{"semi-join diamond", threeLabelGraph(1, 500, 8000), cyc4Diamond()},
	} {
		s := c.g.Freeze()
		m := match.NewMatcher(s)
		steadyQ(c.name, m, c.q, pivoted(s, c.q))
		if !m.SemiJoined() {
			t.Fatalf("%s: no join took the semi-join route", c.name)
		}
	}

	// A guard that admits some flights: the value of the first city any
	// flight leaves from.
	var city string
	match.NewMatcher(snap).Enumerate(q, match.Options{}, func(h core.Match) bool {
		city, _ = g.Attr(h[from], "val")
		return city == ""
	})
	rule := core.MustNew("r", q, []core.Literal{core.Const("c", "val", city), core.VarEq("f", "val", "f", "val")}, nil)
	steady("guarded snapshot", match.NewMatcher(snap), match.Options{Guard: rule.CompileLiterals(snap.Syms()).Guard()})
	ov := graph.NewOverlay(g)
	steady("guarded overlay", match.NewMatcher(ov), match.Options{Guard: rule.CompileLiterals(ov.Syms()).Guard()})

	// A patched view: a new flight wired to an id and a city, and a city
	// rewritten to the guarded value, so the search reads inserted labels,
	// copy-on-write adjacency, a merged class and a written tuple.
	pov := graph.NewOverlay(g.Clone())
	nf := pov.AddNode("flight", graph.Attrs{"val": "patched"})
	pov.MustAddEdge(nf, g.NodesWithLabel("id")[0], "number")
	c := g.NodesWithLabel("city")[0]
	pov.MustAddEdge(nf, c, "from")
	pov.SetAttr(c, "val", city)
	pg := rule.CompileLiterals(pov.Syms()).Guard()
	if n := match.NewMatcher(pov).Count(q, match.Options{Pins: pinTo(f, nf), Guard: pg}); n != 1 {
		t.Fatalf("patched overlay: inserted flight has %d guarded matches, want 1", n)
	}
	steady("guarded patched overlay", match.NewMatcher(pov), match.Options{Guard: pg})

	// Constant-only X: the plan opens the search at c and iterates the
	// holders of the city value, not the city class — on the frozen
	// snapshot through its holder cache, on the patched view through that
	// cache and the tuples the view's patch copied.
	seeded := core.MustNew("s", q, []core.Literal{core.Const("c", "val", city)}, nil)
	for _, row := range []struct {
		name string
		s    *graph.Snapshot
	}{{"constant-seeded snapshot", snap}, {"constant-seeded patched overlay", pov.Snapshot}} {
		m := match.NewMatcher(row.s)
		opts := match.Options{Guard: seeded.CompileLiterals(row.s.Syms()).Guard()}
		if p := m.Plan(q, opts); p.Seeds() == nil || p.Seeds()[0] == nil {
			t.Fatalf("%s: plan %s records no seed at depth 0", row.name, p)
		}
		steady(row.name, m, opts)
	}
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
