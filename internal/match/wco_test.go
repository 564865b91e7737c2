// Differential tests for the worst-case-optimal multiway intersection
// step: on cyclic patterns (where a closing node has ≥2 matched
// neighbors) the intersection route must produce exactly the match set of
// the classical probe backtracking (Options.NoIntersect), order aside, on
// snapshots and overlays, across stripes, pins, limits and Halt —
// and stay allocation-free in steady state.
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

// layeredCyclicGraph draws a random 4-class graph whose labeled edge kinds
// support triangles, diamonds and 4-cycles by construction.
func layeredCyclicGraph(rng *rand.Rand, n, deg int) *graph.Graph {
	g := graph.New(0, 0)
	classes := [4]string{"A", "B", "C", "D"}
	var ids [4][]graph.NodeID
	for ci, cl := range classes {
		for i := 0; i < n; i++ {
			ids[ci] = append(ids[ci], g.AddNode(cl, graph.Attrs{"val": fmt.Sprintf("v%d", i%5)}))
		}
	}
	kinds := []struct {
		from, to int
		label    string
	}{
		{0, 1, "ab"}, {0, 2, "ac"}, {1, 2, "bc"},
		{1, 3, "bd"}, {2, 3, "cd"}, {0, 3, "ad"}, {3, 2, "dc"},
	}
	for _, k := range kinds {
		for _, u := range ids[k.from] {
			for e := 0; e < deg; e++ {
				v := ids[k.to][rng.Intn(n)]
				if !g.HasEdge(u, v, k.label) {
					g.MustAddEdge(u, v, k.label)
				}
			}
		}
	}
	return g
}

func triPattern() *pattern.Pattern {
	q := pattern.New()
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddEdge(a, b, "ab")
	q.AddEdge(b, c, "bc")
	q.AddEdge(a, c, "ac")
	return q
}

func diamondPattern() *pattern.Pattern {
	q := pattern.New()
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	d := q.AddNode("d", "D")
	q.AddEdge(a, b, "ab")
	q.AddEdge(a, c, "ac")
	q.AddEdge(b, d, "bd")
	q.AddEdge(c, d, "cd")
	return q
}

func squarePattern() *pattern.Pattern {
	q := pattern.New()
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	d := q.AddNode("d", "D")
	q.AddEdge(a, b, "ab")
	q.AddEdge(b, c, "bc")
	q.AddEdge(a, d, "ad")
	q.AddEdge(d, c, "dc")
	return q
}

func cyclicShapes() map[string]*pattern.Pattern {
	return map[string]*pattern.Pattern{
		"triangle": triPattern(),
		"diamond":  diamondPattern(),
		"cycle4":   squarePattern(),
	}
}

// collect gathers a matcher enumeration into copied matches.
func collect(m *match.Matcher, q *pattern.Pattern, opts match.Options) []core.Match {
	var out []core.Match
	m.Enumerate(q, opts, func(h core.Match) bool {
		out = append(out, append(core.Match(nil), h...))
		return true
	})
	return out
}

func assertWCOEqualsProbe(t *testing.T, topo graph.Topology, g *graph.Graph, q *pattern.Pattern, opts match.Options, ctx string) {
	t.Helper()
	m := match.NewMatcher(topo)
	wcoOpts, probeOpts := opts, opts
	probeOpts.NoIntersect = true
	wco := matchKeys(collect(m, q, wcoOpts))
	probe := matchKeys(collect(m, q, probeOpts))
	if len(wco) != len(probe) {
		t.Fatalf("%s: WCO found %d matches, probe %d", ctx, len(wco), len(probe))
	}
	for i := range wco {
		if wco[i] != probe[i] {
			t.Fatalf("%s: match sets differ at %d: WCO %s vs probe %s", ctx, i, wco[i], probe[i])
		}
	}
	if g != nil {
		legacy := matchKeys(match.All(g, q, opts))
		if len(legacy) != len(wco) {
			t.Fatalf("%s: legacy oracle found %d matches, WCO %d", ctx, len(legacy), len(wco))
		}
	}
}

// TestWCOEquivalenceCyclicSnapshots is the core differential: random
// graphs × cyclic patterns, snapshot topology, plain options.
func TestWCOEquivalenceCyclicSnapshots(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := layeredCyclicGraph(rng, 40+rng.Intn(40), 2+rng.Intn(5))
		snap := g.Freeze()
		for name, q := range cyclicShapes() {
			assertWCOEqualsProbe(t, snap, g, q, match.Options{},
				fmt.Sprintf("seed %d %s", seed, name))
		}
	}
}

// TestWCOEquivalenceCyclicOverlay repeats the differential over an
// overlay topology with mutations applied through it (patched adjacency
// merges base CSR runs with patch runs; both must stay intersectable).
func TestWCOEquivalenceCyclicOverlay(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := layeredCyclicGraph(rng, 50, 3)
		ov := graph.NewOverlay(g)
		as, bs, cs := g.NodesWithLabel("A"), g.NodesWithLabel("B"), g.NodesWithLabel("C")
		for i := 0; i < 40; i++ {
			a, b, c := as[rng.Intn(len(as))], bs[rng.Intn(len(bs))], cs[rng.Intn(len(cs))]
			switch i % 3 {
			case 0:
				if !g.HasEdge(a, b, "ab") {
					ov.MustAddEdge(a, b, "ab")
				}
			case 1:
				if !g.HasEdge(b, c, "bc") {
					ov.MustAddEdge(b, c, "bc")
				}
			default:
				if !g.HasEdge(a, c, "ac") {
					ov.MustAddEdge(a, c, "ac")
				}
			}
		}
		for name, q := range cyclicShapes() {
			assertWCOEqualsProbe(t, ov, g, q, match.Options{},
				fmt.Sprintf("seed %d overlay %s", seed, name))
		}
	}
}

// TestWCOEquivalenceOptionDimensions sweeps stripes and pins — the
// filters feasibility applies on top of the intersected candidates.
func TestWCOEquivalenceOptionDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := layeredCyclicGraph(rng, 60, 4)
	snap := g.Freeze()
	for name, q := range cyclicShapes() {
		// Stripe node C: unpinned it seeds the search from its striped class
		// range; with a and b pinned to an ab edge it is bound right after
		// them — on the triangle by intersecting both pins' ranges. Residues
		// must agree pairwise AND partition the whole set.
		a := g.NodesWithLabel("A")[rng.Intn(60)]
		pins := [][]match.Pin{nil}
		for _, he := range g.Out(a) {
			if he.Label == "ab" {
				pins = append(pins, append(pinTo(0, a), pinTo(1, he.To)...))
				break
			}
		}
		for _, pin := range pins {
			all := match.NewMatcher(snap).Count(q, match.Options{Pins: pin})
			for _, mod := range []int{2, 3} {
				total := 0
				for rem := 0; rem < mod; rem++ {
					opts := match.Options{Pins: pin, StripeNode: 2, StripeMod: mod, StripeRem: rem}
					assertWCOEqualsProbe(t, snap, g, q, opts, fmt.Sprintf("%s pins %v stripe %d/%d", name, pin, rem, mod))
					total += match.NewMatcher(snap).Count(q, opts)
				}
				if total != all {
					t.Fatalf("%s pins %v mod %d: stripes sum to %d, unstriped %d", name, pin, mod, total, all)
				}
			}
		}
		// Pin: force node 0 onto each of a few candidates.
		for i := 0; i < 5; i++ {
			pin := pinTo(0, g.NodesWithLabel("A")[rng.Intn(60)])
			assertWCOEqualsProbe(t, snap, g, q, match.Options{Pins: pin}, name+" pin")
		}
	}
}

// TestStripeNodeBoundRightAfterPins: on triangle, diamond and path shapes,
// for every pin set and every unpinned node adjacent to a pin, the striped
// plan binds the stripe node right after the pins, and the unstriped plan
// of the same call — cached beside the striped ones — stays what a fresh
// matcher plans.
func TestStripeNodeBoundRightAfterPins(t *testing.T) {
	snap := layeredCyclicGraph(rand.New(rand.NewSource(3)), 30, 3).Freeze()
	path := pattern.New()
	a, b, c := path.AddNode("a", "A"), path.AddNode("b", "B"), path.AddNode("c", "C")
	path.AddEdge(a, b, "ab")
	path.AddEdge(b, c, "bc")
	shapes := map[string]*pattern.Pattern{"triangle": triPattern(), "diamond": diamondPattern(), "path": path}
	m := match.NewMatcher(snap)
	checked := 0
	for name, q := range shapes {
		n := q.NumNodes()
		for set := 1; set < 1<<n-1; set++ {
			var pin []match.Pin
			for i := 0; i < n; i++ {
				if set&(1<<i) != 0 {
					pin = append(pin, pinTo(i, graph.NodeID(i))...)
				}
			}
			plain := match.Options{Pins: pin}
			want := fmt.Sprint(match.NewMatcher(snap).Plan(q, plain).Order)
			for s := 0; s < n; s++ {
				if pinned(pin, s) || !adjacentToPin(q, s, pin) {
					continue
				}
				opts := match.Options{Pins: pin, StripeNode: s, StripeMod: 3}
				if order := m.Plan(q, opts).Order; order[len(pin)] != s {
					t.Fatalf("%s pins %v: striped plan %v binds %d after the pins, want stripe node %d", name, pin, order, order[len(pin)], s)
				}
				if got := fmt.Sprint(m.Plan(q, plain).Order); got != want {
					t.Fatalf("%s pins %v: unstriped plan %s after striping %d, fresh %s", name, pin, got, s, want)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pin set had an unpinned neighbour; the test is vacuous")
	}
}

// pinned reports whether pins bind pattern node u.
func pinned(pins []match.Pin, u int) bool {
	return slices.ContainsFunc(pins, func(p match.Pin) bool { return p.Node == u })
}

// adjacentToPin reports a pattern edge, either direction, between s and a
// pinned node.
func adjacentToPin(q *pattern.Pattern, s int, pin []match.Pin) bool {
	for _, ei := range q.OutEdges(s) {
		if pinned(pin, q.Edges[ei].To) {
			return true
		}
	}
	for _, ei := range q.InEdges(s) {
		if pinned(pin, q.Edges[ei].From) {
			return true
		}
	}
	return false
}

// TestWCOLimitAndHalt: with Limit the two paths may surface different
// matches (enumeration order differs), so only counts are compared; Halt
// must abandon the search on both paths and never yield a match outside
// the full set.
func TestWCOLimitAndHalt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := layeredCyclicGraph(rng, 60, 4)
	snap := g.Freeze()
	for name, q := range cyclicShapes() {
		full := match.NewMatcher(snap).Count(q, match.Options{})
		if full == 0 {
			t.Fatalf("%s: no matches; limit test is vacuous", name)
		}
		for _, limit := range []int{1, 3, full + 10} {
			want := min(limit, full)
			for _, noInt := range []bool{false, true} {
				got := match.NewMatcher(snap).Count(q, match.Options{Limit: limit, NoIntersect: noInt})
				if got != want {
					t.Fatalf("%s limit %d noIntersect=%v: count %d, want %d", name, limit, noInt, got, want)
				}
			}
		}
		fullSet := make(map[string]bool)
		for _, k := range matchKeys(match.NewMatcher(snap).All(q, match.Options{})) {
			fullSet[k] = true
		}
		for _, noInt := range []bool{false, true} {
			probes := 0
			m := match.NewMatcher(snap)
			var got []core.Match
			m.Enumerate(q, match.Options{
				NoIntersect: noInt,
				Halt:        func() bool { probes++; return probes > 50 },
			}, func(h core.Match) bool {
				got = append(got, append(core.Match(nil), h...))
				return true
			})
			if len(got) >= full && full > 1 {
				// Halt landed after everything was already found — fine,
				// but the workloads above are sized so it fires mid-search.
				continue
			}
			for _, k := range matchKeys(got) {
				if !fullSet[k] {
					t.Fatalf("%s noIntersect=%v: halted run yielded %s outside the full match set", name, noInt, k)
				}
			}
		}
	}
}

// TestMatcherZeroAllocIntersection pins the steady-state guarantee on the
// intersection route itself: enumerating a triangle (closing node fed by
// a 2-way intersection every step) over a snapshot must not allocate
// after warm-up.
func TestMatcherZeroAllocIntersection(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := layeredCyclicGraph(rng, 80, 5)
	snap := g.Freeze()
	for name, q := range cyclicShapes() {
		m := match.NewMatcher(snap)
		count := 0
		yield := func(core.Match) bool { count++; return true }
		m.Enumerate(q, match.Options{}, yield) // warm-up: compile, plan cache, buffers
		if count == 0 {
			t.Fatalf("%s: no matches; allocation test is vacuous", name)
		}
		allocs := testing.AllocsPerRun(10, func() {
			m.Enumerate(q, match.Options{}, yield)
		})
		if allocs != 0 {
			t.Fatalf("%s: steady-state WCO Enumerate allocated %.1f times per run, want 0", name, allocs)
		}
	}
}

// windowClusteredGraph is the one input on which the intersection route
// beats probing (the random layered graphs above and the benchmark's
// Chung–Lu graph favour probing slightly): four classes of n nodes and
// seven directed edge kinds, each node's out-adjacency per kind a
// contiguous window of deg targets starting at a per-kind stride multiple
// of the source index (mod n). Distinct strides decorrelate the windows,
// so the two ranges feeding a closing-node intersection overlap in
// ~deg²/n candidates while each is deg long: galloping skips whole runs
// that probing tests one candidate at a time.
func windowClusteredGraph(n int, seed int64) *graph.Graph {
	const deg = 32
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(0, 0)
	ids := make(map[string][]graph.NodeID, 4)
	for _, cl := range []string{"A", "B", "C", "D"} {
		for i := 0; i < n; i++ {
			ids[cl] = append(ids[cl], g.AddNode(cl, graph.Attrs{"val": fmt.Sprintf("v%d", rng.Intn(7))}))
		}
	}
	for _, k := range []struct {
		from, to, label string
		stride          int
	}{
		{"A", "B", "ab", 7}, {"A", "C", "ac", 13}, {"B", "C", "bc", 19},
		{"B", "D", "bd", 23}, {"C", "D", "cd", 29}, {"A", "D", "ad", 31}, {"D", "C", "dc", 37},
	} {
		for i, u := range ids[k.from] {
			start := (i * k.stride) % n
			for j := 0; j < deg; j++ {
				g.MustAddEdge(u, ids[k.to][(start+j)%n], k.label)
			}
		}
	}
	return g
}

// TestWCOEquivalenceWindowClustered runs the benchmark's count
// differential at toy scale: both routes find the same number of matches
// of each shape on the window-clustered graph.
func TestWCOEquivalenceWindowClustered(t *testing.T) {
	snap := windowClusteredGraph(200, 7).Freeze()
	for name, q := range cyclicShapes() {
		wco := match.NewMatcher(snap).Count(q, match.Options{})
		probe := match.NewMatcher(snap).Count(q, match.Options{NoIntersect: true})
		if wco == 0 || wco != probe {
			t.Fatalf("%s: WCO found %d matches, probe %d", name, wco, probe)
		}
	}
}

// BenchmarkEnumerateWindowClustered times full enumerations of the three
// cyclic shapes by intersection (wco) and by probe backtracking
// (Options.NoIntersect): together with match.ns_per_match vs
// match.nointersect_ns_per_match on the benchmark's Chung–Lu graph it
// gives the WCO/probe choice a workload on each side.
func BenchmarkEnumerateWindowClustered(b *testing.B) {
	snap := windowClusteredGraph(1000, 42).Freeze()
	want := map[string]int{} // probe count per shape, computed untimed on first use
	for _, route := range []struct {
		name        string
		noIntersect bool
	}{{"wco", false}, {"probe", true}} {
		for _, shape := range []string{"triangle", "diamond", "cycle4"} {
			q := cyclicShapes()[shape]
			b.Run(route.name+"/"+shape, func(b *testing.B) {
				if _, ok := want[shape]; !ok {
					want[shape] = match.NewMatcher(snap).Count(q, match.Options{NoIntersect: true})
				}
				m := match.NewMatcher(snap)
				opts := match.Options{NoIntersect: route.noIntersect}
				n := 0
				yield := func(core.Match) bool { n++; return true }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n = 0
					m.Enumerate(q, opts, yield)
					if n != want[shape] {
						b.Fatalf("%s found %d matches, probe reference %d", route.name, n, want[shape])
					}
				}
			})
		}
	}
}

// mixedLabelGraph draws n nodes whose labels cycle through A, B and three
// neighbour classes X, Y, Z in a seeded shuffle, wired by edges labelled e,
// f and g. Neighbour IDs interleave across classes, so an edge-label range
// sorted by (neighbour label, neighbour) is not sorted by neighbour.
func mixedLabelGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, m)
	labels := []string{"A", "B", "X", "Y", "Z"}
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))], nil)
	}
	elabels := []string{"e", "f", "g"}
	for i := 0; i < m; i++ {
		from, to, l := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), elabels[rng.Intn(len(elabels))]
		if from != to && !g.HasEdge(from, to, l) {
			g.MustAddEdge(from, to, l)
		}
	}
	return g
}

// TestWildcardNodeClosedByTwoRuns is the wildcard trap: a wildcard pattern
// node w closed by two concrete-label edges from already bound nodes. Its
// candidate ranges are whole edge-label groups, which mix neighbour labels
// and are sorted by (neighbour label, neighbour), not by neighbour, so
// they must be iterated and probed, never intersected. The Matcher's
// matches must equal the legacy searcher's and NoIntersect's, with w's
// edges pointing out of the bound nodes and into them. Letting a
// wildcard-node range into graph.IntersectAdjacency fails this test.
func TestWildcardNodeClosedByTwoRuns(t *testing.T) {
	for _, dir := range []string{"out", "in"} {
		q := pattern.New()
		a, b := q.AddNode("a", "A"), q.AddNode("b", "B")
		w := q.AddNode("w", pattern.Wildcard)
		q.AddEdge(a, b, "g")
		if dir == "out" {
			q.AddEdge(a, w, "e")
			q.AddEdge(b, w, "f")
		} else {
			q.AddEdge(w, a, "e")
			q.AddEdge(w, b, "f")
		}
		for seed := int64(1); seed <= 4; seed++ {
			g := mixedLabelGraph(seed, 60, 1500)
			ctx := fmt.Sprintf("%s seed %d", dir, seed)
			snap := g.Freeze()
			if order := match.NewMatcher(snap).Plan(q, match.Options{}).Order; order[2] != w {
				t.Fatalf("%s: plan %v does not close on the wildcard node", ctx, order)
			}
			if match.NewMatcher(snap).Count(q, match.Options{}) == 0 {
				t.Fatalf("%s: no matches; the test is vacuous", ctx)
			}
			assertWCOEqualsProbe(t, snap, g, q, match.Options{}, ctx)
			assertSameMatches(t, g, q, match.Options{}, ctx)
		}
	}
}
