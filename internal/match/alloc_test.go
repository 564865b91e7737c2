// Steady-state allocation pins: after warm-up (compile, plan cache,
// buffers) an enumeration allocates nothing, on every route and view.
package match_test

import (
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

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

// TestMatcherZeroAllocStriped extends the steady-state allocation
// guarantee to striped enumeration: the residue is a per-candidate check,
// so after warm-up striped enumeration allocates nothing.
func TestMatcherZeroAllocStriped(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: 1})
	q := pattern.New()
	f := q.AddNode("f", "flight")
	id := q.AddNode("i", "id")
	q.AddEdge(f, id, "number")

	m := match.NewMatcher(g.Freeze())
	count := 0
	yield := func(core.Match) bool { count++; return true }
	// Pick a residue that has matches (warm-up doubles as the search).
	var opts match.Options
	for rem := 0; rem < 4 && count == 0; rem++ {
		opts = match.Options{StripeNode: 0, StripeMod: 4, StripeRem: rem}
		m.Enumerate(q, opts, yield) // warm-up: compile, buffers, plan
	}
	if count == 0 {
		t.Fatal("workload has no matches; allocation test is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Enumerate(q, opts, yield)
	})
	if allocs != 0 {
		t.Fatalf("steady-state striped Enumerate allocated %.1f times per run, want 0", allocs)
	}

	// The unit path proper: pivot pinned, stripe on the other node, guard
	// armed — one enumeration per unit, none allocating.
	snap := m.Topo()
	flights := g.NodesWithLabel("flight")
	first, _ := g.Attr(flights[0], "val")
	rule := core.MustNew("r", q, []core.Literal{core.VarEq("f", "val", "f", "val"), core.Const("f", "val", first)}, nil)
	unit := match.Options{
		Pins:       pinTo(f, 0),
		StripeNode: id, StripeMod: 2,
		Guard: rule.CompileLiterals(snap.Syms()).Guard(),
	}
	run := func() {
		for _, v := range flights {
			unit.Pins[0].To[0] = v
			m.Enumerate(q, unit, yield)
		}
	}
	count = 0
	for rem := 0; rem < 2; rem++ { // warm-up: the guarded, pinned, striped plan
		unit.StripeRem = rem
		run()
	}
	if count == 0 {
		t.Fatal("no guarded unit match; allocation test is vacuous")
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("steady-state guarded unit enumeration allocated %.1f times per run, want 0", allocs)
	}
}
