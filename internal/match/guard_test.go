// Literal pushdown: guarded enumeration must yield exactly the unguarded
// match set filtered by the map-based X oracle, on snapshots and overlays
// and under pins and stripes; the plan must schedule each guard at
// its earliest bound depth and order variables so guards close early.
package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// attrGraph is a random graph over three node labels and two edge labels
// whose nodes carry attributes p and q from a three-value domain (each
// missing a third of the time), so X literals hold often enough to matter
// and fail often enough to prune.
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

// xFiltered is the oracle: the legacy path's matches on which the
// map-based X holds.
func xFiltered(g *graph.Graph, f *core.GFD, opts match.Options) []string {
	var out []core.Match
	for _, h := range match.All(g, f.Q, opts) {
		if f.SatisfiesX(g, h) {
			out = append(out, h)
		}
	}
	return matchKeys(out)
}

func guardedKeys(m *match.Matcher, q *pattern.Pattern, opts match.Options) []string {
	var out []core.Match
	m.Enumerate(q, opts, func(h core.Match) bool {
		out = append(out, append(core.Match(nil), h...))
		return true
	})
	return matchKeys(out)
}

func sameKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGuardedEnumerationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for round := 0; round < 12; round++ {
		g := attrGraph(rng, 40+rng.Intn(40), 150+rng.Intn(150))
		ov := graph.NewOverlay(g)
		for trial := 0; trial < 12; trial++ {
			if trial == 6 {
				mutateThroughOverlay(ov, rng, 10)
			}
			q := randomPattern(g, rng, 2+rng.Intn(3), trial%3 == 2)
			f := core.MustNew("r", q, randomX(rng, q), nil)
			opts := match.Options{}
			switch trial % 3 {
			case 1:
				if cands := g.NodesWithLabel(q.Nodes[0].Label); len(cands) > 0 {
					opts.Pins = pinTo(0, cands[rng.Intn(len(cands))])
				}
			case 2: // the unit path: node 0 pinned, its neighbour 1 striped
				v := graph.NodeID(rng.Intn(ov.NumNodes()))
				if cands := g.NodesWithLabel(q.Nodes[0].Label); len(cands) > 0 {
					v = cands[rng.Intn(len(cands))]
				}
				opts.Pins = pinTo(0, v)
				opts.StripeNode, opts.StripeMod, opts.StripeRem = 1, 2, rng.Intn(2)
			}
			want := xFiltered(g, f, opts)
			checked += len(want)
			topo := ov.Snapshot
			if trial < 6 {
				topo = g.Freeze()
			}
			opts.Guard = f.CompileLiterals(topo.Syms()).Guard()
			m := match.NewMatcher(topo)
			if got := guardedKeys(m, q, opts); !sameKeys(got, want) {
				t.Fatalf("round %d trial %d (%s, plan %s): guarded %d matches, oracle %d",
					round, trial, f, m.Plan(q, opts), len(got), len(want))
			}
			if got := m.Count(q, opts); got != len(want) {
				t.Fatalf("round %d trial %d: guarded Count %d, oracle %d", round, trial, got, len(want))
			}
		}
	}
	if checked == 0 {
		t.Fatal("no guarded match survived anywhere; the differential is vacuous")
	}
}

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
	wantA, wantC := xFiltered(g, fa, match.Options{}), xFiltered(g, fc, match.Options{})
	if sameKeys(wantA, wantC) {
		t.Fatal("the two antecedents select the same matches; the test is vacuous")
	}
	for i := 0; i < 3; i++ {
		if got := guardedKeys(m, q, oa); !sameKeys(got, wantA) {
			t.Fatalf("pass %d: guard a yields %d matches, want %d", i, len(got), len(wantA))
		}
		if got := guardedKeys(m, q, oc); !sameKeys(got, wantC) {
			t.Fatalf("pass %d: guard c yields %d matches, want %d", i, len(got), len(wantC))
		}
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
	want := xFiltered(g, f, match.Options{})
	if len(want) == 0 || len(want) == len(g.NodesWithLabel("L0")) {
		t.Fatalf("%d of %d L0 nodes hold p = v0: the seeded scan shows nothing", len(want), len(g.NodesWithLabel("L0")))
	}
	opts := match.Options{Guard: f.CompileLiterals(snap.Syms()).Guard(), Halt: func() bool { return false }}
	before := m.Tries()
	if got := guardedKeys(m, lone, opts); !sameKeys(got, want) || int(m.Tries()-before) != len(want) {
		t.Fatalf("seeded scan: %d matches after %d tries, want %d after as many", len(got), m.Tries()-before, len(want))
	}
}
