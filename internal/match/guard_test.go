// Plan shapes: each guard literal is due at its earliest bound depth,
// variables are ordered so guards close early, constant-X components
// record their seeds, and a striped node is bound right after the pins.
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

// TestGuardPlansDistinctPerGuard: two rules over one pattern object share
// its compiled form, so only the guard in planKey keeps their plans apart.
// Alternating them on one matcher must give each its own plan and its own
// match set every time.
func TestGuardPlansDistinctPerGuard(t *testing.T) {
	g := attrGraph(rand.New(rand.NewSource(9)), 80, 300)
	q := pattern.New()
	a, b, c := q.AddNode("a", "L0"), q.AddNode("b", "L1"), q.AddNode("c", "L2")
	q.AddEdge(a, b, "e0")
	q.AddEdge(b, c, "e1")
	fa := core.MustNew("fa", q, []core.Literal{core.Const("a", "p", "v0")}, nil)
	fc := core.MustNew("fc", q, []core.Literal{core.Const("c", "q", "v1")}, nil)
	snap := g.Freeze()
	m := match.NewMatcher(snap)
	oa := match.Options{Guard: fa.CompileLiterals(snap.Syms()).Guard()}
	oc := match.Options{Guard: fc.CompileLiterals(snap.Syms()).Guard()}
	pa, pc := m.Plan(q, oa).String(), m.Plan(q, oc).String()
	if pa == pc {
		t.Fatalf("both guards planned as %q", pa)
	}
	wantA, _ := oracle(g, q, match.Options{}, [][]core.Literal{fa.X})
	wantC, _ := oracle(g, q, match.Options{}, [][]core.Literal{fc.X})
	if slices.Equal(wantA, wantC) {
		t.Fatal("the two antecedents select the same matches; the test is vacuous")
	}
	for i := 0; i < 3; i++ {
		check(t, row{name: fmt.Sprint("guard a, pass ", i), g: g, m: m, q: q, opts: oa, xs: [][]core.Literal{fa.X}})
		check(t, row{name: fmt.Sprint("guard c, pass ", i), g: g, m: m, q: q, opts: oc, xs: [][]core.Literal{fc.X}})
	}
	if p := m.Plan(q, oa).String(); p != pa {
		t.Fatalf("guard a replanned as %q, first %q", p, pa)
	}
}

// TestGuardPrunesPinnedPivotAtDepthZero: a constant guard on the pinned
// pivot is due at depth 0, so a pivot failing it costs exactly one
// candidate check — the pin itself — and the unit yields nothing.
func TestGuardPrunesPinnedPivotAtDepthZero(t *testing.T) {
	g := attrGraph(rand.New(rand.NewSource(4)), 80, 400)
	q := pattern.New()
	x, y := q.AddNode("x", "L0"), q.AddNode("y", "L1")
	q.AddEdge(x, y, "e0")
	f := core.MustNew("r", q, []core.Literal{core.Const("x", "p", "v0")}, nil)
	snap := g.Freeze()
	guard := f.CompileLiterals(snap.Syms()).Guard()
	m := match.NewMatcher(snap)
	var pass, fail graph.NodeID = graph.Invalid, graph.Invalid
	for _, v := range g.NodesWithLabel("L0") {
		if m.Count(q, match.Options{Pins: pinTo(x, v)}) == 0 {
			continue
		}
		if val, _ := g.Attr(v, "p"); val == "v0" {
			pass = v
		} else {
			fail = v
		}
	}
	if pass == graph.Invalid || fail == graph.Invalid {
		t.Fatal("graph lacks a passing or a failing pivot")
	}
	pin := pinTo(x, fail)
	if p := m.Plan(q, match.Options{Pins: pin, Guard: guard}).String(); p != `x*[x.p = "v0"] y` {
		t.Fatalf("plan %q: the constant guard is not due at the pinned depth", p)
	}
	// Tries counts only while a Halt probe is armed.
	opts := match.Options{Pins: pin, Guard: guard, Halt: func() bool { return false }}
	before := m.Tries()
	if n, tries := m.Count(q, opts), m.Tries()-before; n != 0 || tries != 1 {
		t.Fatalf("failing pivot: %d matches after %d candidate checks, want 0 after 1", n, tries)
	}
	pin[0].To[0] = pass
	before = m.Tries()
	if n, tries := m.Count(q, opts), m.Tries()-before; n == 0 || tries < 2 {
		t.Fatalf("passing pivot: %d matches after %d candidate checks; the guard over-pruned", n, tries)
	}
}

// diamondWorkload is a small cyc_clean_seq: labels L0..L2 rotate with the
// node index (with n ≡ 2 mod 3, L2 is the smallest class, as on the
// benchmark graph), a0,
// a1 and val come from a small domain, and the rule is the benchmark's
// diamond with its two-literal X.
func diamondWorkload(n, m, domain int, seed int64) (*graph.Graph, *core.GFD) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n, m)
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(domain)) }
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("L%d", i%3), graph.Attrs{"a0": val(), "a1": val(), "val": val()})
	}
	for e := 0; e < m; e++ {
		from, to := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		label := fmt.Sprintf("e%d", rng.Intn(3))
		if from != to && !g.HasEdge(from, to, label) {
			g.MustAddEdge(from, to, label)
		}
	}
	q := pattern.New()
	a, b, c, d := q.AddNode("a", "L0"), q.AddNode("b", "L1"), q.AddNode("c", "L2"), q.AddNode("d", "L0")
	q.AddEdge(a, b, "e0")
	q.AddEdge(a, c, "e1")
	q.AddEdge(b, d, "e2")
	q.AddEdge(c, d, "e0")
	f := core.MustNew("diamond", q,
		[]core.Literal{core.VarEq("a", "a0", "b", "a0"), core.VarEq("b", "a1", "c", "a1")},
		[]core.Literal{core.VarEq("a", "val", "d", "val")})
	return g, f
}

// TestDiamondPlanSeedsGuardedPair pins the guard-aware order on the
// benchmark's diamond. Unguarded, the smallest class seeds (c), which
// leaves both X literals to the last depth; guarded, the search seeds with
// the adjacent pair a, b that closes the first literal and binds c next,
// closing the second — each literal checked one level after its last
// operand appears, two levels above the full match.
func TestDiamondPlanSeedsGuardedPair(t *testing.T) {
	g, f := diamondWorkload(302, 3000, 4, 1)
	snap := g.Freeze()
	m := match.NewMatcher(snap)
	if p := m.Plan(f.Q, match.Options{}).String(); p[0] != 'c' {
		t.Fatalf("unguarded plan %q no longer seeds the smallest class; the test lost its contrast", p)
	}
	opts := match.Options{Guard: f.CompileLiterals(snap.Syms()).Guard()}
	if p := m.Plan(f.Q, opts).String(); p != "a b[a.a0 = b.a0] c[b.a1 = c.a1] d" {
		t.Fatalf("guarded diamond plan %q", p)
	}
}

// TestPlanSeedsConstantComponents pins when a depth records seeds: only a
// depth past the pins that opens a component, and only when every live
// member of the guard has a constant literal due there; the seeds are each
// live member's first such constant, without repeats (core.Guard.SeedsAt).
// A member whose X can never hold does not count, and a guard past 63
// members seeds nothing. A seeded single-node rule tries exactly the
// holders and yields the oracle's matches.
func TestPlanSeedsConstantComponents(t *testing.T) {
	g := attrGraph(rand.New(rand.NewSource(3)), 90, 300)
	snap := g.Freeze()
	m := match.NewMatcher(snap)
	lone := pattern.New()
	lone.AddNode("x", "L0")
	pair := pattern.New()
	x, y := pair.AddNode("x", "L0"), pair.AddNode("y", "L1")
	pair.AddNode("z", "L2")
	pair.AddEdge(x, y, "e0")
	guard := func(q *pattern.Pattern, xs ...[]core.Literal) *core.Guard {
		progs := make([]*core.LiteralProgram, len(xs))
		for i, x := range xs {
			progs[i] = core.MustNew(fmt.Sprint("r", i), q, x, nil).CompileLiterals(snap.Syms())
		}
		return core.GroupGuard(progs, nil)
	}
	c := func(v pattern.Var, a, val string) []core.Literal { return []core.Literal{core.Const(v, a, val)} }
	// seedsOf renders the seeds at the depth each pattern node binds.
	seedsOf := func(q *pattern.Pattern, opts match.Options) map[pattern.Var]string {
		p := m.Plan(q, opts)
		out := map[pattern.Var]string{}
		for d, u := range p.Order {
			if p.Seeds() == nil || p.Seeds()[d] == nil {
				continue
			}
			for _, kv := range p.Seeds()[d] {
				out[q.Nodes[u].Var] += snap.Syms().Name(kv.Name) + "=" + snap.Syms().Name(kv.Val) + ";"
			}
		}
		return out
	}
	many := func(n int) [][]core.Literal {
		xs := make([][]core.Literal, n)
		for i := range xs {
			xs[i] = c("x", "p", "v0")
		}
		return xs
	}
	pin := pinTo(x, g.NodesWithLabel("L0")[0])
	for _, tc := range []struct {
		name string
		q    *pattern.Pattern
		opts match.Options
		want string
	}{
		{"one constant", lone, match.Options{Guard: guard(lone, c("x", "p", "v0"))}, "map[x:p=v0;]"},
		{"two constants", lone, match.Options{Guard: guard(lone, c("x", "p", "v0"), c("x", "p", "v1"))}, "map[x:p=v0;p=v1;]"},
		{"shared constant", lone, match.Options{Guard: guard(lone, c("x", "p", "v0"), c("x", "p", "v0"))}, "map[x:p=v0;]"},
		{"two constants in one member", lone, match.Options{Guard: guard(lone, []core.Literal{core.Const("x", "p", "v1"), core.Const("x", "q", "v0")})}, "map[x:p=v1;]"},
		{"a dead member", lone, match.Options{Guard: guard(lone, c("x", "p", "v0"), []core.Literal{core.VarEq("x", "p", "x", "ghost")})}, "map[x:p=v0;]"},
		{"a member without one", lone, match.Options{Guard: guard(lone, c("x", "p", "v0"), []core.Literal{core.VarEq("x", "p", "x", "q")})}, "map[]"},
		{"63 members", lone, match.Options{Guard: guard(lone, many(63)...)}, "map[x:p=v0;]"},
		{"members past bit 63", lone, match.Options{Guard: guard(lone, many(64)...)}, "map[]"},
		{"100 members", lone, match.Options{Guard: guard(lone, many(100)...)}, "map[]"},
		{"variable literals only", pair, match.Options{Guard: guard(pair, []core.Literal{core.VarEq("x", "p", "y", "p"), core.VarEq("z", "p", "z", "q")})}, "map[]"},
		{"joined depth", pair, match.Options{Guard: guard(pair, []core.Literal{core.Const("x", "p", "v0"), core.Const("y", "q", "v1")})}, "map[y:q=v1;]"},
		{"pinned depth", pair, match.Options{Pins: pin, Guard: guard(pair, []core.Literal{core.Const("x", "p", "v0"), core.Const("z", "q", "v1")})}, "map[z:q=v1;]"},
	} {
		if got := fmt.Sprint(seedsOf(tc.q, tc.opts)); got != tc.want {
			t.Errorf("%s: seeds %s, want %s (plan %s)", tc.name, got, tc.want, m.Plan(tc.q, tc.opts))
		}
	}

	f := core.MustNew("r", lone, c("x", "p", "v0"), nil)
	want, _ := oracle(g, lone, match.Options{}, [][]core.Literal{f.X})
	if len(want) == 0 || len(want) == len(g.NodesWithLabel("L0")) {
		t.Fatalf("%d of %d L0 nodes hold p = v0: the seeded scan shows nothing", len(want), len(g.NodesWithLabel("L0")))
	}
	opts := match.Options{Guard: f.CompileLiterals(snap.Syms()).Guard(), Halt: func() bool { return false }}
	before := m.Tries()
	if got := keys(m, lone, opts); !slices.Equal(slices.Sorted(slices.Values(got)), want) || int(m.Tries()-before) != len(want) {
		t.Fatalf("seeded scan: %d matches after %d tries, want %d after as many", len(got), m.Tries()-before, len(want))
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
	shapes := map[string]*pattern.Pattern{"triangle": triPattern(), "diamond": cyclicShapes()["diamond"], "path": path}
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
