package validate

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// --- fixtures: a ≥4-rule group sharing a triangle core ---------------------

// tailRule builds a rule whose pattern extends the shared triangle core
// a-[ab]->b-[bc]->c, a-[ac]->c with one extra tail node C-[label]->Tail,
// plus a VarEq consequence. The core is cyclic, so the structural
// profitability guard accepts it.
func tailRule(name, tailLabel, edgeLabel string, lit core.Literal) *core.GFD {
	q := pattern.New()
	a := q.AddNode("a", "A")
	b := q.AddNode("b", "B")
	c := q.AddNode("c", "C")
	q.AddEdge(a, b, "ab")
	q.AddEdge(b, c, "bc")
	q.AddEdge(a, c, "ac")
	if tailLabel != "" {
		t := q.AddNode("t", tailLabel)
		q.AddEdge(c, t, edgeLabel)
	}
	return core.MustNew(name, q, nil, []core.Literal{lit})
}

// sharedCoreSet is four rules over the same triangle prefix: three with
// distinct tails (proper-prefix branches) and one that IS the core (a
// full-coverage branch).
func sharedCoreSet() *core.Set {
	return core.MustNewSet(
		tailRule("r1", "D", "cd", core.VarEq("a", "val", "t", "val")),
		tailRule("r2", "E", "ce", core.VarEq("b", "val", "t", "val")),
		tailRule("r3", "F", "cf", core.VarEq("a", "val", "b", "val")),
		tailRule("r4", "", "", core.VarEq("a", "val", "b", "val")),
	)
}

// sharedCoreGraph keeps the six classes the same size so the class-size
// guard accepts the group, and mixes values so rules both hold and
// violate.
func sharedCoreGraph() *graph.Graph {
	g := graph.New(0, 0)
	val := func(i int) string { return fmt.Sprintf("v%d", i%3) }
	for i := 0; i < 5; i++ {
		a := g.AddNode("A", graph.Attrs{"val": val(i)})
		b := g.AddNode("B", graph.Attrs{"val": val(i + 1)})
		c := g.AddNode("C", graph.Attrs{"val": val(i + 2)})
		g.MustAddEdge(a, b, "ab")
		g.MustAddEdge(b, c, "bc")
		g.MustAddEdge(a, c, "ac")
		d := g.AddNode("D", graph.Attrs{"val": val(i + 1)})
		e := g.AddNode("E", graph.Attrs{"val": val(i + 1)})
		f := g.AddNode("F", graph.Attrs{"val": val(i)})
		g.MustAddEdge(c, d, "cd")
		g.MustAddEdge(c, e, "ce")
		g.MustAddEdge(c, f, "cf")
	}
	return g
}

// windowFactorGraph is BenchmarkFactorGroup's input: classes A, B, C and
// tails T1..T3 of n nodes each. a-[ab]->b and b-[bc]->c are contiguous
// windows of 32 targets at decorrelated strides, but the closing
// a-[ac]->c is a single edge per A node, so most (a, b) pairs close on
// nothing: the triangle is expensive to search relative to its match
// count, the regime where re-walking the core per rule is the cost
// factorization removes. Each C node carries one edge per tail class.
func windowFactorGraph(n int, seed int64) *graph.Graph {
	const deg = 32
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(0, 0)
	ids := make(map[string][]graph.NodeID, 6)
	for _, cl := range []string{"A", "B", "C", "T1", "T2", "T3"} {
		for i := 0; i < n; i++ {
			ids[cl] = append(ids[cl], g.AddNode(cl, graph.Attrs{"val": fmt.Sprintf("v%d", rng.Intn(7))}))
		}
	}
	window := func(from, to, label string, stride int) {
		for i, u := range ids[from] {
			start := (i * stride) % n
			for j := 0; j < deg; j++ {
				g.MustAddEdge(u, ids[to][(start+j)%n], label)
			}
		}
	}
	window("A", "B", "ab", 7)
	window("B", "C", "bc", 19)
	for i := 0; i < n; i++ {
		g.MustAddEdge(ids["A"][i], ids["C"][(i*11)%n], "ac")
		g.MustAddEdge(ids["C"][i], ids["T1"][i], "t1")
		g.MustAddEdge(ids["C"][i], ids["T2"][(i*3)%n], "t2")
		g.MustAddEdge(ids["C"][i], ids["T3"][(i*5)%n], "t3")
	}
	return g
}

// windowFactorSet is the four-rule group over windowFactorGraph: three
// triangle rules with one tail each and the bare triangle, so the shared
// core is the whole triangle.
func windowFactorSet() *core.Set {
	return core.MustNewSet(
		tailRule("tri_t1", "T1", "t1", core.VarEq("a", "val", "t", "val")),
		tailRule("tri_t2", "T2", "t2", core.VarEq("a", "val", "t", "val")),
		tailRule("tri_t3", "T3", "t3", core.VarEq("a", "val", "t", "val")),
		tailRule("tri", "", "", core.VarEq("a", "val", "b", "val")),
	)
}

func collectWith(t *testing.T, run func(context.Context, *Bundle, Sink) error, g *graph.Graph, set *core.Set) Report {
	t.Helper()
	sink := NewCollectSink(1)
	if err := run(context.Background(), NewBundle(g, set), sink); err != nil {
		t.Fatalf("detection failed: %v", err)
	}
	r := sink.Report()
	r.Sort()
	return r
}

// --- tests -----------------------------------------------------------------

func TestFactorGroupsFormOnSharedCore(t *testing.T) {
	b := NewBundle(sharedCoreGraph(), sharedCoreSet())
	groups := b.factorGroups()
	var factored *factorGroup
	for _, g := range groups {
		if g.core != nil {
			factored = g
		}
	}
	if factored == nil {
		t.Fatal("no factorized group formed over a 4-rule shared core")
	}
	if len(factored.branches) != 4 {
		t.Fatalf("group has %d branches, want 4", len(factored.branches))
	}
	if factored.core.NumNodes() != 3 || factored.core.NumEdges() != 3 {
		t.Fatalf("core = %s, want the 3-node triangle prefix", factored.core)
	}
	fulls := 0
	for _, br := range factored.branches {
		if br.full {
			fulls++
		}
	}
	if fulls != 1 {
		t.Fatalf("full-coverage branches = %d, want exactly 1 (r4)", fulls)
	}
	// Second call returns the cached slice.
	if &b.factorGroups()[0].branches[0] != &groups[0].branches[0] {
		t.Fatal("factor groups not cached per bundle")
	}
}

func TestFactorizedMatchesPerRuleOnSharedCore(t *testing.T) {
	g, set := sharedCoreGraph(), sharedCoreSet()
	want := collectWith(t, DetVioPerRuleB, g, set)
	if len(want) == 0 {
		t.Fatal("fixture produced no violations; test is vacuous")
	}
	got := collectWith(t, DetVioB, g, set)
	if !got.Equal(want) {
		t.Fatalf("factorized report differs: %d violations, want %d", len(got), len(want))
	}
}

// TestFactorizedGuardDecline plants one member whose most selective class
// (a single G node) lies outside the (cyclic) core: the 4× class-size
// guard must decline the group, and the per-rule fallback must still
// produce identical results.
func TestFactorizedGuardDecline(t *testing.T) {
	g := sharedCoreGraph()
	gn := g.AddNode("G", graph.Attrs{"val": "v0"})
	g.MustAddEdge(2, gn, "cg") // node 2 is the first C
	set := core.MustNewSet(
		tailRule("r1", "D", "cd", core.VarEq("a", "val", "t", "val")),
		tailRule("r5", "G", "cg", core.VarEq("a", "val", "t", "val")),
	)
	b := NewBundle(g, set)
	for _, grp := range b.factorGroups() {
		if grp.core != nil && len(grp.branches) > 1 {
			t.Fatal("guard should decline: one member's min class (|G|=1) is far below the core's")
		}
	}
	want := collectWith(t, DetVioPerRuleB, g, set)
	got := collectWith(t, DetVioB, g, set)
	if !got.Equal(want) {
		t.Fatalf("declined-group report differs: %d vs %d", len(got), len(want))
	}
}

// TestFactorizedDeclinesTreeCore: rules sharing only an acyclic prefix
// must NOT factorize — a tree core enumerates in near-constant amortized
// time per match, so the per-core-match inner-enumeration setup the
// factorized driver pays would exceed the re-walk it saves. The
// structural guard declines and the per-rule fallback stays exact.
func TestFactorizedDeclinesTreeCore(t *testing.T) {
	pathRule := func(name, tailLabel, edgeLabel string, lit core.Literal) *core.GFD {
		q := pattern.New()
		a := q.AddNode("a", "A")
		b := q.AddNode("b", "B")
		q.AddEdge(a, b, "ab")
		if tailLabel != "" {
			t := q.AddNode("t", tailLabel)
			q.AddEdge(b, t, edgeLabel)
		}
		return core.MustNew(name, q, nil, []core.Literal{lit})
	}
	set := core.MustNewSet(
		pathRule("p1", "D", "bd", core.VarEq("a", "val", "t", "val")),
		pathRule("p2", "E", "be", core.VarEq("b", "val", "t", "val")),
		pathRule("p3", "", "", core.VarEq("a", "val", "b", "val")),
	)
	g := graph.New(0, 0)
	val := func(i int) string { return fmt.Sprintf("v%d", i%3) }
	for i := 0; i < 5; i++ {
		a := g.AddNode("A", graph.Attrs{"val": val(i)})
		b := g.AddNode("B", graph.Attrs{"val": val(i + 1)})
		g.MustAddEdge(a, b, "ab")
		d := g.AddNode("D", graph.Attrs{"val": val(i)})
		e := g.AddNode("E", graph.Attrs{"val": val(i)})
		g.MustAddEdge(b, d, "bd")
		g.MustAddEdge(b, e, "be")
	}
	b := NewBundle(g, set)
	for _, grp := range b.factorGroups() {
		if grp.core != nil {
			t.Fatalf("tree-core group factorized (core %s); acyclic cores must decline", grp.core)
		}
	}
	want := collectWith(t, DetVioPerRuleB, g, set)
	if len(want) == 0 {
		t.Fatal("fixture produced no violations; test is vacuous")
	}
	got := collectWith(t, DetVioB, g, set)
	if !got.Equal(want) {
		t.Fatalf("declined tree-core report differs: %d vs %d", len(got), len(want))
	}
}

// TestFactorizedMatchesPerRuleOnMinedWorkloads is the random differential:
// generated graphs, mined rule sets (which often share cores), factorized
// vs per-rule must agree violation-for-violation.
func TestFactorizedMatchesPerRuleOnMinedWorkloads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var g *graph.Graph
		if seed%2 == 0 {
			g = gen.YAGO2Like(gen.DatasetConfig{Scale: 120, Seed: seed})
		} else {
			g = gen.Synthetic(gen.SyntheticConfig{Nodes: 400, Edges: 1200, Seed: seed})
		}
		gen.Inject(g, gen.NoiseConfig{Rate: 0.08, Seed: seed + 100})
		set := gen.MineGFDs(g, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.25, Seed: seed})
		if set.Len() == 0 {
			continue
		}
		want := collectWith(t, DetVioPerRuleB, g, set)
		got := collectWith(t, DetVioB, g, set)
		if !got.Equal(want) {
			t.Fatalf("seed %d: factorized %d violations, per-rule %d", seed, len(got), len(want))
		}
	}
}

func TestFactorizedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := DetVioB(ctx, NewBundle(sharedCoreGraph(), sharedCoreSet()), NewCollectSink(1))
	if err == nil {
		t.Skip("enumeration finished before the first cancellation probe")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestFactorizedSinkStop(t *testing.T) {
	seen := 0
	err := DetVioB(context.Background(), NewBundle(sharedCoreGraph(), sharedCoreSet()),
		Callback(func(Violation) bool {
			seen++
			return false // refuse after the first violation
		}))
	if err != nil {
		t.Fatalf("sink stop must not error: %v", err)
	}
	if seen != 1 {
		t.Fatalf("sink saw %d violations after stopping at 1", seen)
	}
}

// TestFactorizedMatchesPerRuleWindowClustered runs BenchmarkFactorGroup's
// differential at toy scale: the four rules form one factorized group and
// both drivers report the same violations.
func TestFactorizedMatchesPerRuleWindowClustered(t *testing.T) {
	g, set := windowFactorGraph(200, 7), windowFactorSet()
	if fg := NewBundle(g, set).factorGroups(); len(fg) != 1 || len(fg[0].branches) != 4 {
		t.Fatalf("rules did not form one 4-branch factorized group: %d groups", len(fg))
	}
	want := collectWith(t, DetVioPerRuleB, g, set)
	if len(want) == 0 {
		t.Fatal("fixture produced no violations; test is vacuous")
	}
	if got := collectWith(t, DetVioB, g, set); !got.Equal(want) {
		t.Fatalf("factorized %d violations, per-rule %d", len(got), len(want))
	}
}

// BenchmarkFactorGroup times the factorized shared-core driver (DetVioB)
// against per-rule enumeration (DetVioPerRuleB) on the four-rule group:
// per-rule detection walks the sparse triangle four times, the factorized
// driver once.
func BenchmarkFactorGroup(b *testing.B) {
	bundle := NewBundle(windowFactorGraph(1000, 42), windowFactorSet())
	ctx := context.Background()
	count := func(b *testing.B, run func(context.Context, *Bundle, Sink) error) int {
		sink := NewCollectSink(1)
		if err := run(ctx, bundle, sink); err != nil {
			b.Fatal(err)
		}
		return len(sink.Report())
	}
	want := -1 // per-rule violation count, computed untimed on first use
	for _, d := range []struct {
		name string
		run  func(context.Context, *Bundle, Sink) error
	}{{"factored", DetVioB}, {"perrule", DetVioPerRuleB}} {
		b.Run(d.name, func(b *testing.B) {
			if want < 0 {
				want = count(b, DetVioPerRuleB)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := count(b, d.run); n != want {
					b.Fatalf("%s found %d violations, per-rule reference %d", d.name, n, want)
				}
			}
		})
	}
}
