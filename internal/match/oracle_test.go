// The matcher's one differential. A match is a subgraph isomorphism, so
// every route the Matcher takes — the worst-case-optimal intersection, the
// semi-join, guard pushdown, pin lists, stripes, overlay views — must yield
// the legacy searcher's match set (match.Enumerate over the graph), kept
// to the matches on which X holds when the row has one. A row names the
// graph, the view the Matcher reads, the pattern, the options, an optional
// X and what else it expects; check is the only comparison. Each Test below
// draws one family of rows.
package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

type row struct {
	name string
	g    *graph.Graph   // the searcher's graph; once an overlay seals it, it reads through the overlay
	view graph.Topology // the Matcher's view; nil freezes g
	m    *match.Matcher // a Matcher kept across rows; nil makes one over view
	q    *pattern.Pattern
	opts match.Options
	// xs holds one X per guard member: the Matcher runs their compiled
	// guard (opts.Guard, if set, instead), the oracle keeps the matches on
	// which some member's X holds.
	xs [][]core.Literal
	// order is the plan's order, -1 for any node; halt abandons the search
	// once Halt has been probed that many times.
	order []int
	halt  int
	// nonEmpty: the oracle finds a match; semiJoin: a join took the
	// semi-join route; ordered: the Matcher yields the searcher's sequence.
	nonEmpty, semiJoin, ordered bool
}

// check runs r's enumeration and compares it with the oracle: the sorted
// matches are the oracle's (under Limit or Halt, a subset, Limit long),
// NoIntersect yields the same sequence and Count agrees.
func check(t *testing.T, r row) {
	t.Helper()
	m := r.m
	if m == nil {
		if r.view == nil {
			r.view = r.g.Freeze()
		}
		m = match.NewMatcher(r.view)
	}
	want, seq := oracle(r.g, r.q, r.opts, r.xs)
	opts := r.opts
	if r.xs != nil && opts.Guard == nil {
		opts.Guard = guard(m.Topo().Syms(), r.q, r.xs...)
	}
	run := func(m *match.Matcher, opts match.Options) []string {
		if r.halt > 0 {
			probes := 0
			opts.Halt = func() bool { probes++; return probes > r.halt }
		}
		return keys(m, r.q, opts)
	}
	got := run(m, opts)
	semi := m.SemiJoined()
	plan := m.Plan(r.q, opts)
	ctx := fmt.Sprintf("%s: pattern %s, plan %s", r.name, r.q, plan)
	if r.halt > 0 || opts.Limit > 0 {
		if opts.Limit > 0 && len(got) != min(opts.Limit, len(want)) {
			t.Fatalf("%s: %d matches under limit %d, the searcher %d in all", ctx, len(got), opts.Limit, len(want))
		}
		for _, k := range got {
			if _, ok := slices.BinarySearch(want, k); !ok {
				t.Fatalf("%s: match %s is not the searcher's", ctx, k)
			}
		}
	} else if sorted := slices.Sorted(slices.Values(got)); !slices.Equal(sorted, want) {
		t.Fatalf("%s: %d matches, the searcher %d", ctx, len(got), len(want))
	}
	if r.halt == 0 {
		probe := opts
		probe.NoIntersect = true
		if p := run(match.NewMatcher(m.Topo()), probe); !slices.Equal(got, p) {
			t.Fatalf("%s: %d matches, NoIntersect %d, or a different order", ctx, len(got), len(p))
		}
		if n := m.Count(r.q, opts); n != len(got) {
			t.Fatalf("%s: Count %d, Enumerate %d", ctx, n, len(got))
		}
	}
	switch {
	case r.nonEmpty && len(want) == 0:
		t.Fatalf("%s: the searcher finds no match; the row is vacuous", ctx)
	case r.semiJoin && !semi:
		t.Fatalf("%s: no join took the semi-join route", ctx)
	case r.ordered && !slices.Equal(got, seq):
		t.Fatalf("%s: the Matcher's sequence is not the searcher's", ctx)
	}
	for i, u := range r.order {
		if u >= 0 && plan.Order[i] != u {
			t.Fatalf("%s: order %v, want %v", ctx, plan.Order, r.order)
		}
	}
}

// oracle returns the searcher's matches under opts (Limit, Halt and Guard
// aside) on which some X of xs holds, sorted and in the searcher's order.
func oracle(g *graph.Graph, q *pattern.Pattern, opts match.Options, xs [][]core.Literal) (sorted, seq []string) {
	opts.Limit, opts.Halt, opts.Guard = 0, nil, nil
	rules := make([]*core.GFD, len(xs))
	for i, x := range xs {
		rules[i] = core.MustNew(fmt.Sprint("r", i), q, x, nil)
	}
	match.Enumerate(g, q, opts, func(h core.Match) bool {
		if xs == nil || slices.ContainsFunc(rules, func(f *core.GFD) bool { return f.SatisfiesX(g, h) }) {
			seq = append(seq, fmt.Sprint([]graph.NodeID(h)))
		}
		return true
	})
	return slices.Sorted(slices.Values(seq)), seq
}

// keys returns the matches of one enumeration, in order.
func keys(m *match.Matcher, q *pattern.Pattern, opts match.Options) []string {
	var out []string
	m.Enumerate(q, opts, func(h core.Match) bool {
		out = append(out, fmt.Sprint([]graph.NodeID(h)))
		return true
	})
	return out
}

// matchKeys canonicalizes a match set for order-insensitive comparison.
func matchKeys(ms []core.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = fmt.Sprint([]graph.NodeID(m))
	}
	sort.Strings(keys)
	return keys
}

// guard compiles one member per X over q: a rule's own guard for one, a
// group guard for several.
func guard(syms *graph.Symbols, q *pattern.Pattern, xs ...[]core.Literal) *core.Guard {
	progs := make([]*core.LiteralProgram, len(xs))
	for i, x := range xs {
		progs[i] = core.MustNew(fmt.Sprint("r", i), q, x, nil).CompileLiterals(syms)
	}
	if len(progs) == 1 {
		return progs[0].Guard()
	}
	return core.GroupGuard(progs, nil)
}

func TestDifferentialRandomPatterns(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 40; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(3), trial%2 == 1)
			check(t, row{name: fmt.Sprintf("%s trial %d", name, trial), g: g, q: q})
		}
	}
}

// TestDifferentialPinned pins node 0 to a few of its candidates (a node of
// the wrong label when it has none), then to its whole class as one list,
// as an engine unit binds its pivot.
func TestDifferentialPinned(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 20; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), false)
			r := row{name: fmt.Sprintf("%s trial %d", name, trial), g: g, q: q, opts: pivoted(g.Freeze(), q)}
			check(t, r)
			cands := g.NodesWithLabel(q.Nodes[0].Label)
			if len(cands) == 0 {
				cands = []graph.NodeID{0}
			}
			for i := 0; i < 3 && i < len(cands); i++ {
				r.opts = match.Options{Pins: pinTo(0, cands[(i*7)%len(cands)])}
				check(t, r)
			}
		}
	}
}

func TestDifferentialStriped(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(23))
		for trial := 0; trial < 12; trial++ {
			q := randomPattern(g, rng, 2+rng.Intn(2), false)
			mod, node := 2+rng.Intn(3), rng.Intn(q.NumNodes())
			for rem := 0; rem < mod; rem++ {
				check(t, row{name: fmt.Sprintf("%s trial %d stripe %d/%d", name, trial, rem, mod), g: g, q: q,
					opts: match.Options{StripeNode: node, StripeMod: mod, StripeRem: rem}})
			}
		}
	}
}

// TestStripedClassFastPath: a striped node that seeds the search (no pin,
// no matched neighbour) scans its class, and the residue filter alone
// selects each stripe.
func TestStripedClassFastPath(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 13})
	q := pattern.New()
	q.AddNode("c", "city")
	for _, mod := range []int{2, 3, 5} {
		for rem := 0; rem < mod; rem++ {
			check(t, row{name: fmt.Sprintf("stripe %d/%d", rem, mod), g: g, q: q, nonEmpty: true,
				opts: match.Options{StripeNode: 0, StripeMod: mod, StripeRem: rem}})
		}
	}
}

func TestDifferentialLimit(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		q := randomPattern(g, rng, 2+rng.Intn(2), false)
		for _, limit := range []int{1, 2, 5} {
			check(t, row{name: fmt.Sprintf("trial %d limit %d", trial, limit), g: g, q: q, opts: match.Options{Limit: limit}})
		}
	}
}

// TestDifferentialMinedRules runs mined rules, the engines' real workload
// (two-component patterns included), unguarded and under their own X. On
// the YAGO2- and DBpedia-like graphs the unguarded Matcher yields the
// searcher's sequence, match for match: gen.InjectTargeted draws its noise
// in that order. On the Pokec-like graph the orders differ.
func TestDifferentialMinedRules(t *testing.T) {
	for _, c := range []struct {
		name    string
		g       *graph.Graph
		ordered bool
	}{
		{"yago2", gen.YAGO2Like(gen.DatasetConfig{Scale: 50, Seed: 21}), true},
		{"dbpedia", gen.DBpediaLike(gen.DatasetConfig{Scale: 60, Seed: 29}), true},
		{"pokec", gen.PokecLike(gen.DatasetConfig{Scale: 80, Seed: 19}), false},
	} {
		set := gen.MineGFDs(c.g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.5, Seed: 9})
		for _, f := range set.Rules() {
			r := row{name: c.name + " rule " + f.Name, g: c.g, q: f.Q, ordered: c.ordered}
			check(t, r)
			if len(f.X) > 0 {
				r.xs, r.ordered = [][]core.Literal{f.X}, false
				check(t, r)
			}
		}
	}
}

// TestDifferentialOverlayMatcher keeps one Matcher over an overlay that
// mutateThroughOverlay grows between rounds: plain, one pin, the unit
// path (node 0 pinned, its neighbour 1 striped) and a random stripe.
func TestDifferentialOverlayMatcher(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(77))
		ov := graph.NewOverlay(g)
		m := match.NewMatcher(ov)
		for round := 0; round < 6; round++ {
			mutateThroughOverlay(ov, rng, 5+rng.Intn(10))
			for trial := 0; trial < 8; trial++ {
				q := randomPattern(g, rng, 2+rng.Intn(3), trial%2 == 1)
				opts := match.Options{}
				if cands := g.NodesWithLabel(q.Nodes[0].Label); trial%4 != 0 && trial%4 != 3 && len(cands) > 0 {
					opts.Pins = pinTo(0, cands[rng.Intn(len(cands))])
				}
				switch trial % 4 {
				case 2:
					opts.StripeNode, opts.StripeMod, opts.StripeRem = 1, 2, rng.Intn(2)
				case 3:
					opts.StripeNode, opts.StripeMod = rng.Intn(q.NumNodes()), 2+rng.Intn(3)
					opts.StripeRem = rng.Intn(opts.StripeMod)
				}
				check(t, row{name: fmt.Sprintf("%s round %d trial %d", name, round, trial), g: g, m: m, q: q, opts: opts})
			}
		}
	}
}

// TestGuardedEnumerationDifferential draws random X — one member, or a
// group of two whose live mask drops a member once its X fails — over
// snapshots, then over an overlay after updates, plain, pinned and on the
// unit path.
func TestGuardedEnumerationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 12; round++ {
		g := attrGraph(rng, 40+rng.Intn(40), 150+rng.Intn(150))
		ov := graph.NewOverlay(g)
		for trial := 0; trial < 12; trial++ {
			if trial == 6 {
				mutateThroughOverlay(ov, rng, 10)
			}
			q := randomPattern(g, rng, 2+rng.Intn(3), trial%3 == 2)
			r := row{name: fmt.Sprintf("round %d trial %d", round, trial), g: g, q: q, xs: [][]core.Literal{randomX(rng, q)}}
			if trial%4 == 3 {
				r.xs = append(r.xs, randomX(rng, q))
			}
			switch trial % 3 {
			case 1:
				if cands := g.NodesWithLabel(q.Nodes[0].Label); len(cands) > 0 {
					r.opts.Pins = pinTo(0, cands[rng.Intn(len(cands))])
				}
			case 2:
				v := graph.NodeID(rng.Intn(ov.NumNodes()))
				if cands := g.NodesWithLabel(q.Nodes[0].Label); len(cands) > 0 {
					v = cands[rng.Intn(len(cands))]
				}
				r.opts = match.Options{Pins: pinTo(0, v), StripeNode: 1, StripeMod: 2, StripeRem: rng.Intn(2)}
			}
			if trial >= 6 {
				r.view = ov
			}
			check(t, r)
		}
	}
	// Two members due at different depths: a match whose x fails the first
	// and whose y fails the second has no live member left.
	g := attrGraph(rand.New(rand.NewSource(2)), 60, 300)
	q := pattern.New()
	q.AddEdge(q.AddNode("x", "L0"), q.AddNode("y", "L1"), "e0")
	check(t, row{name: "members at two depths", g: g, q: q, nonEmpty: true,
		xs: [][]core.Literal{{core.Const("x", "p", "v0")}, {core.Const("y", "q", "v1")}}})
}

// TestWCOEquivalenceCyclicSnapshots: random layered graphs × cyclic
// shapes, where closing nodes intersect two or more runs.
func TestWCOEquivalenceCyclicSnapshots(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := layeredCyclicGraph(rng, 40+rng.Intn(40), 2+rng.Intn(5))
		for name, q := range cyclicShapes() {
			check(t, row{name: fmt.Sprintf("seed %d %s", seed, name), g: g, q: q})
		}
	}
}

// TestWCOEquivalenceCyclicOverlay: the same over an overlay whose inserts
// patch the runs the intersection reads.
func TestWCOEquivalenceCyclicOverlay(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		g := layeredCyclicGraph(rng, 50, 3)
		ov := graph.NewOverlay(g)
		as, bs, cs := g.NodesWithLabel("A"), g.NodesWithLabel("B"), g.NodesWithLabel("C")
		for i := 0; i < 40; i++ {
			ends := [][2]graph.NodeID{
				{as[rng.Intn(len(as))], bs[rng.Intn(len(bs))]},
				{bs[rng.Intn(len(bs))], cs[rng.Intn(len(cs))]},
				{as[rng.Intn(len(as))], cs[rng.Intn(len(cs))]},
			}[i%3]
			if l := []string{"ab", "bc", "ac"}[i%3]; !g.HasEdge(ends[0], ends[1], l) {
				ov.MustAddEdge(ends[0], ends[1], l)
			}
		}
		for name, q := range cyclicShapes() {
			check(t, row{name: fmt.Sprintf("seed %d %s", seed, name), g: g, view: ov, q: q, nonEmpty: true})
		}
	}
}

// TestWCOEquivalenceOptionDimensions: stripes on C, unpinned (C seeds from
// its striped class) and with a and b pinned to an ab-edge (C bound right
// after them), and pins on node 0.
func TestWCOEquivalenceOptionDimensions(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := layeredCyclicGraph(rng, 60, 4)
	for name, q := range cyclicShapes() {
		a := g.NodesWithLabel("A")[rng.Intn(60)]
		pins := [][]match.Pin{nil}
		if i := slices.IndexFunc(g.Out(a), func(e graph.HalfEdge) bool { return e.Label == "ab" }); i >= 0 {
			pins = append(pins, append(pinTo(0, a), pinTo(1, g.Out(a)[i].To)...))
		}
		for _, pin := range pins {
			for _, mod := range []int{2, 3} {
				for rem := 0; rem < mod; rem++ {
					check(t, row{name: fmt.Sprintf("%s pins %v stripe %d/%d", name, pin, rem, mod), g: g, q: q,
						opts: match.Options{Pins: pin, StripeNode: 2, StripeMod: mod, StripeRem: rem}})
				}
			}
		}
		for i := 0; i < 5; i++ {
			check(t, row{name: name + " pin", g: g, q: q, opts: match.Options{Pins: pinTo(0, g.NodesWithLabel("A")[rng.Intn(60)])}})
		}
	}
}

// TestWCOEquivalenceWindowClustered: the benchmark's window-clustered
// graph at toy scale, where galloping skips whole runs.
func TestWCOEquivalenceWindowClustered(t *testing.T) {
	g := windowClusteredGraph(60, 6, 7)
	for name, q := range cyclicShapes() {
		check(t, row{name: name, g: g, q: q, nonEmpty: true})
	}
}

// TestWCOLimitAndHalt: under Limit each route yields its first matches,
// a subset of the searcher's; Halt abandons either route mid-search.
func TestWCOLimitAndHalt(t *testing.T) {
	g := layeredCyclicGraph(rand.New(rand.NewSource(17)), 60, 4)
	for name, q := range cyclicShapes() {
		for _, limit := range []int{1, 3, 1 << 20} {
			check(t, row{name: fmt.Sprintf("%s limit %d", name, limit), g: g, q: q, opts: match.Options{Limit: limit}, nonEmpty: true})
		}
		for _, noInt := range []bool{false, true} {
			check(t, row{name: fmt.Sprintf("%s halt noIntersect=%v", name, noInt), g: g, q: q, opts: match.Options{NoIntersect: noInt}, halt: 50})
		}
	}
}

// TestWildcardNodeClosedByTwoRuns is the wildcard trap: a wildcard node w
// closed by two concrete-label edges from bound nodes, out of them and
// into them. Its runs are whole edge-label groups, sorted by (neighbour
// label, neighbour), so they must be iterated and probed, never
// intersected.
func TestWildcardNodeClosedByTwoRuns(t *testing.T) {
	for _, out := range []bool{true, false} {
		q := pattern.New()
		a, b := q.AddNode("a", "L0"), q.AddNode("b", "L1")
		w := q.AddNode("w", pattern.Wildcard)
		q.AddEdge(a, b, "e1")
		if out {
			q.AddEdge(a, w, "e0")
			q.AddEdge(b, w, "e1")
		} else {
			q.AddEdge(w, a, "e0")
			q.AddEdge(w, b, "e1")
		}
		for seed := int64(1); seed <= 4; seed++ {
			g := attrGraph(rand.New(rand.NewSource(seed)), 60, 1500)
			check(t, row{name: fmt.Sprintf("out %v seed %d", out, seed), g: g, q: q, order: []int{-1, -1, w}, nonEmpty: true})
		}
	}
}

// TestSemiJoinHubShapes: the triangle bound a, b, c, so c's fixed run is
// a's ac-run. On a hub a it is long and the siblings' bc-runs short; on
// hub b nodes the siblings are long and it is short; on the last A nodes
// it is empty.
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
			q, m := triPattern(), match.NewMatcher(g.Freeze())
			r := row{name: fmt.Sprintf("%s seed %d", tc.name, seed), g: g, m: m, q: q, opts: pivoted(m.Topo(), q), order: []int{0, 1, 2}, nonEmpty: true}
			check(t, r)
			r.opts, r.order, r.semiJoin = match.Options{Pins: pinTo(0, 0)}, nil, true
			check(t, r)
		}
	}
}

// TestSemiJoinCyc4Diamond: the benchmark's diamond, bound a first and d
// last, and the diamond with a chord a -e0-> d, which gives d a fixed run
// and two sibling runs, leapfrogged before the filter.
func TestSemiJoinCyc4Diamond(t *testing.T) {
	chord := cyc4Diamond()
	chord.AddEdge(0, 3, "e0")
	for i, q := range []*pattern.Pattern{cyc4Diamond(), chord} {
		for seed := int64(1); seed <= 4; seed++ {
			g := threeLabelGraph(seed, 500, 8000)
			m := match.NewMatcher(g.Freeze())
			r := row{name: fmt.Sprintf("shape %d seed %d", i, seed), g: g, m: m, q: q, opts: pivoted(m.Topo(), q), order: []int{0, -1, -1, 3}, nonEmpty: true, semiJoin: true}
			check(t, r)
			r.opts, r.order = match.Options{}, nil
			check(t, r)
		}
	}
}

// TestSemiJoinOverlayGrows: one Matcher over an overlay enumerates the
// hub-pinned triangle, then the overlay gains more nodes than the bitset
// has room for, wired into the hub's fixed run and some siblings' runs,
// and the same Matcher enumerates again, pinned to the hub and to another
// A node.
func TestSemiJoinOverlayGrows(t *testing.T) {
	g := hubGraph(5, 20, 120, 130, 4, 2, 0)
	ov := graph.NewOverlay(g)
	r := row{name: "before", g: g, m: match.NewMatcher(ov), q: triPattern(), opts: match.Options{Pins: pinTo(0, 0)}, nonEmpty: true, semiJoin: true}
	check(t, r)
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
	for i, a := range []graph.NodeID{0, 1, 0} {
		r.name, r.opts.Pins, r.semiJoin = fmt.Sprintf("after growth %d, a%d", i, a), pinTo(0, a), false
		check(t, r)
	}
}

// TestSemiJoinOverlayPatchedRun: the hub's fixed run is read from its
// patched adjacency, whose next insert shifts the run in place. The
// Matcher's next call, pinned to a1, must hold no bit of the old run: c1,
// in the hub's run but not a1's, closes a triangle with a1 only if a stale
// bit admits it.
func TestSemiJoinOverlayPatchedRun(t *testing.T) {
	g := hubGraph(7, 20, 120, 130, 4, 0, 0)
	ov := graph.NewOverlay(g)
	var b graph.NodeID = -1
	for _, e := range g.Out(1) {
		if e.Label == "ab" {
			b = e.To
		}
	}
	c1 := ov.AddNode("C", nil)
	ov.MustAddEdge(0, c1, "ac")
	ov.MustAddEdge(b, c1, "bc")
	r := row{name: "hub", g: g, m: match.NewMatcher(ov), q: triPattern(), opts: match.Options{Pins: pinTo(0, 0)}, nonEmpty: true, semiJoin: true}
	check(t, r)
	ov.MustAddEdge(0, ov.AddNode("B", nil), "ab")
	r.name, r.opts.Pins, r.semiJoin = "a1 after the insert", pinTo(0, 1), false
	check(t, r)
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

// randomX draws a 1–3 literal antecedent over q's variables: constants,
// cross-node and same-node equalities, an attribute no node carries and a
// constant no node holds.
func randomX(rng *rand.Rand, q *pattern.Pattern) []core.Literal {
	vars := q.Vars()
	attr := func() string {
		if rng.Intn(12) == 0 {
			return "ghost"
		}
		return []string{"p", "q"}[rng.Intn(2)]
	}
	x := make([]core.Literal, 1+rng.Intn(3))
	for i := range x {
		v := vars[rng.Intn(len(vars))]
		switch rng.Intn(4) {
		case 0:
			c := fmt.Sprintf("v%d", rng.Intn(3))
			if rng.Intn(10) == 0 {
				c = "never-interned"
			}
			x[i] = core.Const(v, attr(), c)
		case 1:
			x[i] = core.VarEq(v, "p", v, "q")
		default:
			x[i] = core.VarEq(v, attr(), vars[rng.Intn(len(vars))], attr())
		}
	}
	return x
}

// pinTo pins pattern node u to graph node v alone.
func pinTo(u int, v graph.NodeID) []match.Pin {
	return []match.Pin{{Node: u, To: []graph.NodeID{v}}}
}

// pivoted pins pattern node 0 to its whole class as one list, as an engine
// unit binds its pivot, so the plan starts there.
func pivoted(snap *graph.Snapshot, q *pattern.Pattern) match.Options {
	return match.Options{Pins: []match.Pin{{Node: 0, To: snap.NodesWith(snap.Syms().Lookup(q.Nodes[0].Label))}}}
}

func diffGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"synthetic": gen.Synthetic(gen.SyntheticConfig{Nodes: 250, Edges: 700, Skew: 0.6, Seed: 11}),
		"yago2":     gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 7}),
		"pokec":     gen.PokecLike(gen.DatasetConfig{Scale: 80, Seed: 19}),
	}
}

// mutateThroughOverlay applies a deterministic batch of updates through
// the overlay: inserted nodes, "patched" edges and attribute writes.
func mutateThroughOverlay(ov *graph.Overlay, rng *rand.Rand, steps int) {
	g := ov.Graph()
	labels := g.Labels()
	for i := 0; i < steps; i++ {
		switch rng.Intn(3) {
		case 0:
			ov.AddNode(labels[rng.Intn(len(labels))], graph.Attrs{"val": fmt.Sprintf("nv%d", i)})
		case 1:
			from := graph.NodeID(rng.Intn(ov.NumNodes()))
			to := graph.NodeID(rng.Intn(ov.NumNodes()))
			if from != to && !g.HasEdge(from, to, "patched") {
				ov.MustAddEdge(from, to, "patched")
			}
		default:
			ov.SetAttr(graph.NodeID(rng.Intn(ov.NumNodes())), "val", fmt.Sprintf("sv%d", i))
		}
	}
}

// attrGraph is a random graph over three node labels and two edge labels
// whose nodes carry attributes p and q from a three-value domain (each
// missing a third of the time), so X literals hold often enough to matter
// and fail often enough to prune. An edge-label group mixes neighbour
// labels, so it is not sorted by neighbour.
func attrGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n, m)
	for i := 0; i < n; i++ {
		am := graph.Attrs{}
		for _, a := range []string{"p", "q"} {
			if rng.Intn(3) > 0 {
				am[a] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		g.AddNode(fmt.Sprintf("L%d", rng.Intn(3)), am)
	}
	for e := 0; e < m; e++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		label := fmt.Sprintf("e%d", rng.Intn(2))
		if from != to && !g.HasEdge(from, to, label) {
			g.MustAddEdge(from, to, label)
		}
	}
	return g
}

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

// windowClusteredGraph is the one input on which the intersection route
// beats probing (the random layered graphs above and the benchmark's
// Chung–Lu graph favour probing slightly): four classes of n nodes and
// seven directed edge kinds, each node's out-adjacency per kind a
// contiguous window of deg targets starting at a per-kind stride multiple
// of the source index (mod n). Distinct strides decorrelate the windows,
// so the two ranges feeding a closing-node intersection overlap in
// ~deg²/n candidates while each is deg long: galloping skips whole runs
// that probing tests one candidate at a time.
func windowClusteredGraph(n, deg int, seed int64) *graph.Graph {
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

// cyclicShapes are the triangle, the diamond and the 4-cycle over the
// layered graphs' classes.
func cyclicShapes() map[string]*pattern.Pattern {
	shape := func(edges ...string) *pattern.Pattern {
		q := pattern.New()
		for _, v := range []string{"a", "b", "c", "d"} {
			q.AddNode(pattern.Var(v), strings.ToUpper(v))
		}
		for _, e := range edges {
			q.AddEdge(int(e[0]-'a'), int(e[1]-'a'), e)
		}
		return q
	}
	return map[string]*pattern.Pattern{
		"triangle": triPattern(),
		"diamond":  shape("ab", "ac", "bd", "cd"),
		"cycle4":   shape("ab", "bc", "ad", "dc"),
	}
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
