package baseline

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/testutil"
	"gfd/internal/validate"
)

// pathRule builds a GFD over the path a -e1-> b -e2-> c.
func pathRule(name string) *core.GFD {
	q := pattern.New()
	a := q.AddNode("a", "person")
	b := q.AddNode("b", "city")
	c := q.AddNode("c", "country")
	q.AddEdge(a, b, "born_in")
	q.AddEdge(b, c, "located_in")
	return core.MustNew(name, q, nil, []core.Literal{core.VarEq("a", "country", "c", "val")})
}

// cyclicRule builds a GFD over a cyclic pattern (inexpressible as GCFD).
func cyclicRule(name string) *core.GFD {
	q := pattern.New()
	x := q.AddNode("x", "person")
	y := q.AddNode("y", "person")
	q.AddEdge(x, y, "has_child")
	q.AddEdge(y, x, "has_child")
	return core.MustNew(name, q, nil, []core.Literal{core.Const("x", "impossible", "true")})
}

// branchingRule builds a GFD over a star (branching, inexpressible).
func branchingRule(name string) *core.GFD {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	return core.MustNew(name, q, nil, []core.Literal{core.VarEq("y", "val", "z", "val")})
}

func TestFromGFDExpressibility(t *testing.T) {
	if _, ok := FromGFD(pathRule("p")); !ok {
		t.Error("a chain rule is GCFD-expressible")
	}
	if _, ok := FromGFD(cyclicRule("c")); ok {
		t.Error("cyclic patterns are not GCFD-expressible")
	}
	if _, ok := FromGFD(branchingRule("b")); ok {
		t.Error("branching patterns are not GCFD-expressible")
	}
	// Two isomorphic single-node components: the relational-FD encoding,
	// expressible as a CFD over tuple pairs.
	twoComp := pattern.New()
	twoComp.AddNode("x", "a")
	twoComp.AddNode("y", "a")
	f := core.MustNew("t", twoComp, nil, []core.Literal{core.VarEq("x", "v", "y", "v")})
	if _, ok := FromGFD(f); !ok {
		t.Error("isomorphic path-pair patterns are CFD-expressible")
	}
	// Two non-isomorphic components are not.
	hetero := pattern.New()
	hetero.AddNode("x", "a")
	hetero.AddNode("y", "b")
	hf := core.MustNew("h", hetero, nil, []core.Literal{core.VarEq("x", "v", "y", "v")})
	if _, ok := FromGFD(hf); ok {
		t.Error("heterogeneous components are not a CFD pair")
	}
	// Two isomorphic *star* components (the flight FD) are not paths.
	stars := pattern.New()
	for _, pre := range []string{"x", "y"} {
		hub := stars.AddNode(pattern.Var(pre), "flight")
		s1 := stars.AddNode(pattern.Var(pre+"1"), "id")
		s2 := stars.AddNode(pattern.Var(pre+"2"), "city")
		stars.AddEdge(hub, s1, "number")
		stars.AddEdge(hub, s2, "from")
	}
	sf := core.MustNew("s2", stars, nil, []core.Literal{core.VarEq("x1", "val", "y1", "val")})
	if _, ok := FromGFD(sf); ok {
		t.Error("star components are not GCFD-expressible")
	}
	// Single node counts as a trivial path.
	single := pattern.New()
	single.AddNode("x", "a")
	sg := core.MustNew("s", single, nil, []core.Literal{core.Const("x", "v", "1")})
	if _, ok := FromGFD(sg); !ok {
		t.Error("a single node is a trivial path")
	}
}

func TestConvertSetCountsDropped(t *testing.T) {
	set := core.MustNewSet(pathRule("p"), cyclicRule("c"), branchingRule("b"))
	rules, dropped := ConvertSet(set)
	if len(rules) != 1 || dropped != 2 {
		t.Errorf("converted %d, dropped %d", len(rules), dropped)
	}
}

func TestGCFDDetectMatchesGFDOnPaths(t *testing.T) {
	// On path-expressible rules GCFD detection equals GFD detection.
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 120, Seed: 5})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: 6, Kinds: []gen.NoiseKind{gen.AttributeNoise}})
	rule := pathRule("p")
	// Give persons a country attribute matching their country, with some
	// noise already applied above (country attr won't exist -> rule only
	// fires when present; add it for a few nodes).
	for i, p := range g.NodesWithLabel("person") {
		if i%3 == 0 {
			g.SetAttr(p, "country", "country_0")
		}
	}
	set := core.MustNewSet(rule)
	want := detVio(g, set)
	gcfds, _ := ConvertSet(set)
	got := gcfdVio(g, gcfds)
	if !got.Equal(want) {
		t.Errorf("GCFD found %d violations, GFD engine %d", len(got), len(want))
	}
}

func TestGCFDMissesCyclicViolations(t *testing.T) {
	// The Fig. 7 GFD-1 shape: person that has a child that is also its
	// parent. GCFDs cannot express it, so they catch nothing.
	g := graph.New(0, 0)
	a := g.AddNode("person", graph.Attrs{"val": "a"})
	b := g.AddNode("person", graph.Attrs{"val": "b"})
	g.MustAddEdge(a, b, "has_child")
	g.MustAddEdge(b, a, "has_child")

	set := core.MustNewSet(cyclicRule("cyc"))
	want := detVio(g, set)
	if len(want) == 0 {
		t.Fatal("the GFD engine must flag the parent/child cycle")
	}
	gcfds, dropped := ConvertSet(set)
	if dropped != 1 || len(gcfdVio(g, gcfds)) != 0 {
		t.Error("GCFD must drop the cyclic rule and find nothing")
	}
}

func TestBigDansingMatchesGFDEngine(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 100, Seed: 7})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: 8})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 5, PatternSize: 4, TwoCompFrac: 0.4, Seed: 9})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	want := detVio(g, set)
	rel := Encode(g.Freeze())
	got := joinVio(g, rel, set, 4)
	if !got.Equal(want) {
		t.Fatalf("join engine found %d violations, GFD engine %d", len(got), len(want))
	}
}

func TestBigDansingIsolatedNodesAndInjectivity(t *testing.T) {
	// Pattern of two isolated same-label nodes: the join plan must scan
	// the node table and enforce distinctness.
	g := graph.New(0, 0)
	g.AddNode("R", graph.Attrs{"A": "1", "B": "x"})
	g.AddNode("R", graph.Attrs{"A": "1", "B": "y"})
	f := core.FromFD("fd", "R", []string{"A"}, []string{"B"})
	set := core.MustNewSet(f)
	want := detVio(g, set)
	if len(want) != 2 {
		t.Fatalf("expected both orders to violate, got %d", len(want))
	}
	got := joinVio(g, Encode(g.Freeze()), set, 2)
	if !got.Equal(want) {
		t.Errorf("join engine: %v, want %v", got, want)
	}
}

func TestBigDansingWildcardLabels(t *testing.T) {
	g := graph.New(0, 0)
	b := g.AddNode("bird", graph.Attrs{"can_fly": "true"})
	p := g.AddNode("penguin", graph.Attrs{"can_fly": "false"})
	g.MustAddEdge(p, b, "is_a")

	q := pattern.New()
	x := q.AddNode("x", pattern.Wildcard)
	y := q.AddNode("y", pattern.Wildcard)
	q.AddEdge(y, x, "is_a")
	f := core.MustNew("isa", q, nil, []core.Literal{core.VarEq("x", "can_fly", "y", "can_fly")})
	set := core.MustNewSet(f)

	want := detVio(g, set)
	if len(want) != 1 {
		t.Fatalf("penguin inconsistency not found by reference: %d", len(want))
	}
	got := joinVio(g, Encode(g.Freeze()), set, 1)
	if !got.Equal(want) {
		t.Error("join engine misses the wildcard is_a violation")
	}
}

func TestBigDansingSlowerThanPivotEngine(t *testing.T) {
	// Sanity on the Fig. 9 shape: the join engine explores strictly more
	// intermediate tuples. We proxy "slower" by comparing the result with
	// equal answers under a modest time budget rather than wall clock
	// (timing asserts flake); the benchmark suite measures the 4.6×.
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: 10})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 3, PatternSize: 4, Seed: 11})
	if set.Len() == 0 {
		t.Skip("no rules")
	}
	rel := Encode(g.Freeze())
	if got, want := joinVio(g, rel, set, 2), detVio(g, set); !got.Equal(want) {
		t.Error("join engine result mismatch")
	}
}

func TestGCFDDetectBMultiWorkerLanes(t *testing.T) {
	// n workers sharding rules over per-worker lanes must produce exactly
	// the single-worker violation set, and each worker must emit on its
	// own lane.
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 120, Seed: 5})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.08, Seed: 6, Kinds: []gen.NoiseKind{gen.AttributeNoise}})
	for i, p := range g.NodesWithLabel("person") {
		if i%3 == 0 {
			g.SetAttr(p, "country", "country_0")
		}
	}
	rules := []*GCFD{}
	for i := 0; i < 4; i++ {
		c, ok := FromGFD(pathRule(string(rune('a' + i))))
		if !ok {
			t.Fatal("path rule must convert")
		}
		rules = append(rules, c)
	}
	b := validate.NewBundle(g, core.MustNewSet())
	want := validate.NewCollectSink(1)
	if err := DetectB(context.Background(), b, rules, 1, want); err != nil {
		t.Fatal(err)
	}
	wr := want.Report()
	wr.Sort()
	if len(wr) == 0 {
		t.Fatal("fixture produced no violations; test is vacuous")
	}
	got := validate.NewCollectSink(4)
	if err := DetectB(context.Background(), b, rules, 4, got); err != nil {
		t.Fatal(err)
	}
	gr := got.Report()
	gr.Sort()
	if !gr.Equal(wr) {
		t.Fatalf("4-worker run found %d violations, 1-worker %d", len(gr), len(wr))
	}
}

func TestGCFDDetectBSinkStopAndCancel(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 120, Seed: 5})
	for i, p := range g.NodesWithLabel("person") {
		if i%2 == 0 {
			g.SetAttr(p, "country", "nowhere")
		}
	}
	c, _ := FromGFD(pathRule("p"))
	rules := []*GCFD{c}
	b := validate.NewBundle(g, core.MustNewSet())
	var n atomic.Int32
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := DetectB(ctx, b, rules, 2, testutil.Callback(func(validate.Violation) {
		n.Add(1)
		cancel()
	}))
	// The run ends with the context's error however far its last probe
	// stride reached; validate's TestScanRulesStopsEveryWorker, on a
	// workload many strides long, checks how promptly ScanRules stops.
	if !errors.Is(err, context.Canceled) || n.Load() < 1 {
		t.Fatalf("a cancel from inside an emission: err %v after %d violations, want context.Canceled", err, n.Load())
	}
	ctx, cancel = context.WithCancel(context.Background())
	cancel()
	if err := DetectB(ctx, b, rules, 2, validate.NewCollectSink(2)); err == nil {
		t.Skip("enumeration finished before the first cancellation probe")
	}
}

// gcfdVio is one collected GCFD baseline run over a fresh bundle,
// canonically sorted.
func gcfdVio(g *graph.Graph, rules []*GCFD) validate.Report {
	b := validate.NewBundle(g, core.MustNewSet())
	res, err := validate.Single(len(rules), 1, nil, func(s validate.Sink) error {
		return DetectB(context.Background(), b, rules, 1, s)
	})
	if err != nil {
		panic(err)
	}
	return res.Violations
}

// joinVio is one collected BigDansing run with n workers over a fresh
// bundle, canonically sorted.
func joinVio(g *graph.Graph, rel *Relational, set *core.Set, n int) validate.Report {
	b := validate.NewBundle(g, set)
	res, err := validate.Single(set.Len(), n, nil, func(s validate.Sink) error {
		return DetectJoinsB(context.Background(), b, rel, n, s)
	})
	if err != nil {
		panic(err)
	}
	return res.Violations
}

// detVio is a one-shot sequential run: Vio(Σ, G), canonically sorted.
func detVio(g *graph.Graph, set *core.Set) validate.Report {
	sink := validate.NewCollectSink(1)
	if err := validate.DetVioB(context.Background(), validate.NewBundle(g, set), sink); err != nil {
		panic(err)
	}
	out := sink.Report()
	out.Sort()
	return out
}
