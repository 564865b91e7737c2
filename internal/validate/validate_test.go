package validate

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// --- fixtures -------------------------------------------------------------

// paperG1 builds Fig. 1's G1 plus one consistent flight pair, so both
// violating and non-violating matches exist.
func paperG1() *graph.Graph {
	g := graph.New(0, 0)
	addFlight := func(name, id, from, to string) {
		f := g.AddNode("flight", graph.Attrs{"val": name})
		sat := func(label, val string) graph.NodeID {
			return g.AddNode(label, graph.Attrs{"val": val})
		}
		g.MustAddEdge(f, sat("id", id), "number")
		g.MustAddEdge(f, sat("city", from), "from")
		g.MustAddEdge(f, sat("city", to), "to")
	}
	addFlight("flight1", "DL1", "Paris", "NYC")
	addFlight("flight2", "DL1", "Paris", "Singapore") // inconsistent pair
	addFlight("flight3", "BA7", "Edi", "Lon")
	addFlight("flight4", "BA7", "Edi", "Lon") // consistent pair
	return g
}

// phi1 is the flight GFD over the reduced Q1 (id + two cities).
func phi1() *core.GFD {
	q := pattern.New()
	for _, pre := range []string{"x", "y"} {
		f := q.AddNode(pattern.Var(pre), "flight")
		id := q.AddNode(pattern.Var(pre+"1"), "id")
		c1 := q.AddNode(pattern.Var(pre+"2"), "city")
		c2 := q.AddNode(pattern.Var(pre+"3"), "city")
		q.AddEdge(f, id, "number")
		q.AddEdge(f, c1, "from")
		q.AddEdge(f, c2, "to")
	}
	return core.MustNew("phi1", q,
		[]core.Literal{core.VarEq("x1", "val", "y1", "val")},
		[]core.Literal{core.VarEq("x2", "val", "y2", "val"), core.VarEq("x3", "val", "y3", "val")})
}

// capitalSet builds ϕ2 over a country with two capitals.
func phi2() *core.GFD {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	return core.MustNew("phi2", q, nil, []core.Literal{core.VarEq("y", "val", "z", "val")})
}

// allVariants enumerates the engine configurations beyond N = 1…4 whose
// violation set must match the oracle's exactly (TestMetamorphicVio runs
// each). They all keep
// implied rules (NoReduce, or NoOptimize, which never reduces):
// implication-based reduction may drop a *duplicate* rule, which changes
// rule attribution (though not the flagged entities) —
// TestReducePreservesEntities covers that path.
func allVariants() map[string]Options {
	return map[string]Options{
		"ran":   {N: 4, RandomAssign: true, Seed: 99, NoReduce: true},
		"nop":   {N: 4, NoOptimize: true},
		"n8":    {N: 8, NoReduce: true},
		"split": {N: 4, SplitThreshold: 2, NoReduce: true},
	}
}

// One-shot helpers: each call pays a fresh bundle, like the free functions
// the session API replaced.

func detVio(g *graph.Graph, set *core.Set) Report {
	sink := NewCollectSink(1)
	if err := DetVioB(context.Background(), NewBundle(g, set), sink); err != nil {
		panic(err)
	}
	out := sink.Report()
	out.Sort()
	return out
}

func repVal(g *graph.Graph, set *core.Set, opt Options) *Result {
	res, err := RepValB(context.Background(), NewBundle(g, set), opt, nil)
	if err != nil {
		panic(err)
	}
	return res
}

func disVal(g *graph.Graph, frag *fragment.Fragmentation, set *core.Set, opt Options) *Result {
	res, err := DisValB(context.Background(), NewBundle(g, set), frag, opt, nil)
	if err != nil {
		panic(err)
	}
	return res
}

// satisfies reports G |= Σ, stopping at the first violation.
func satisfies(g *graph.Graph, set *core.Set) bool {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	violated := false
	_ = DetVioB(ctx, NewBundle(g, set), callback(func(Violation) {
		violated = true
		cancel()
	}))
	return !violated
}

func TestReducePreservesEntities(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 160, Seed: 11})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: 12})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	want := violatingNodes(detVio(g, set))
	res := repVal(g, set, Options{N: 4}) // reduction on
	got := violatingNodes(res.Violations)
	if len(got) != len(want) {
		t.Fatalf("reduction changed flagged entities: %d vs %d", len(got), len(want))
	}
	for _, v := range want {
		if _, ok := slices.BinarySearch(got, v); !ok {
			t.Fatalf("entity %d lost after reduction", v)
		}
	}
}

// --- DetVio on paper examples ----------------------------------------------

func TestDetVioFlightExample(t *testing.T) {
	g := paperG1()
	set := core.MustNewSet(phi1())
	vio := detVio(g, set)
	// The DL1 pair violates in both orders; the BA7 pair is consistent.
	if len(vio) != 2 {
		t.Fatalf("violations = %d, want 2 (both orders of the DL1 pair)", len(vio))
	}
	for _, v := range vio {
		if v.Rule != "phi1" {
			t.Errorf("rule = %s", v.Rule)
		}
		if len(v.Nodes()) != 8 {
			t.Errorf("violation entities = %d, want 8", len(v.Nodes()))
		}
	}
}

func TestDetVioCapitalExample(t *testing.T) {
	g := graph.New(0, 0)
	au := g.AddNode("country", graph.Attrs{"val": "Australia"})
	c1 := g.AddNode("city", graph.Attrs{"val": "Canberra"})
	c2 := g.AddNode("city", graph.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, c1, "capital")
	g.MustAddEdge(au, c2, "capital")
	fr := g.AddNode("country", graph.Attrs{"val": "France"})
	paris := g.AddNode("city", graph.Attrs{"val": "Paris"})
	g.MustAddEdge(fr, paris, "capital")

	set := core.MustNewSet(phi2())
	vio := detVio(g, set)
	// Canberra/Melbourne in both orders; France has one capital: G3 |= ϕ2
	// vacuously for it (Example 6(b)).
	if len(vio) != 2 {
		t.Fatalf("violations = %d, want 2", len(vio))
	}
	if satisfies(g, set) {
		t.Error("graph with violations cannot satisfy Σ")
	}
}

func TestSatisfiesConsistentGraph(t *testing.T) {
	g := graph.New(0, 0)
	fr := g.AddNode("country", graph.Attrs{"val": "France"})
	paris := g.AddNode("city", graph.Attrs{"val": "Paris"})
	g.MustAddEdge(fr, paris, "capital")
	if !satisfies(g, core.MustNewSet(phi2())) {
		t.Error("single capital graph satisfies ϕ2 (no match of Q2)")
	}
}

// TestDetVioCancelledBeforeStart: a dead context surfaces as the context's
// own error — never rewritten into something else — and nothing reaches
// the sink, on a rule that violates at almost every edge of the graph.
func TestDetVioCancelledBeforeStart(t *testing.T) {
	g := gen.Synthetic(gen.SyntheticConfig{Nodes: 500, Edges: 1500, Seed: 3})
	q := pattern.New()
	q.AddEdge(q.AddNode("x", pattern.Wildcard), q.AddNode("y", pattern.Wildcard), pattern.Wildcard)
	set := core.MustNewSet(core.MustNew("same_val", q, nil, []core.Literal{core.VarEq("x", "val", "y", "val")}))
	b := NewBundle(g, set)
	if live := NewCollectSink(1); DetVioB(context.Background(), b, live) != nil || len(live.Report()) == 0 {
		t.Fatal("the rule must have violations for the cancelled run to be empty by cancellation")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sink := NewCollectSink(1)
	if err := DetVioB(ctx, b, sink); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled detVio returned %v, want context.Canceled", err)
	}
	if got := sink.Report(); len(got) != 0 {
		t.Fatalf("cancelled detVio delivered %d violations", len(got))
	}
}

// --- Engine instrumentation -------------------------------------------------

// pivotVectors is the number of pivot vectors repVal's plan for opt
// enumerates on (g, set): the per-candidate units of the paper's model,
// which the plan's units hold as class ranges.
func pivotVectors(t *testing.T, g *graph.Graph, set *core.Set, opt Options) int {
	t.Helper()
	n, err := NewBundle(g, set).PlanVectors(opt)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestRepValInstrumentation(t *testing.T) {
	g := paperG1()
	set := core.MustNewSet(phi1())
	res := repVal(g, set, Options{N: 4})
	if res.Rules != 1 || res.Groups != 1 {
		t.Errorf("rules=%d groups=%d", res.Rules, res.Groups)
	}
	// 4 flights -> C(4,2) = 6 deduped pivot pairs.
	if n := pivotVectors(t, g, set, Options{N: 4}); n != 6 {
		t.Errorf("pivot vectors = %d, want 6 unordered flight pairs", n)
	}
	if res.TotalWeight <= 0 || res.Makespan <= 0 || res.Makespan > res.TotalWeight {
		t.Errorf("weights: total=%d makespan=%d", res.TotalWeight, res.Makespan)
	}
	if res.Wall <= 0 {
		t.Error("wall time must be positive")
	}
	if res.BytesShipped <= 0 {
		t.Error("unit descriptors must be charged")
	}
}

func TestRepValNoOptimizeDoublesSymmetricUnits(t *testing.T) {
	g := paperG1()
	set := core.MustNewSet(phi1())
	opt := pivotVectors(t, g, set, Options{N: 4})
	nop := pivotVectors(t, g, set, Options{N: 4, NoOptimize: true})
	if nop != 2*opt {
		t.Errorf("nop pivot vectors = %d, want double of %d", nop, opt)
	}
}

func TestDisValShipsData(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 100, Seed: 31})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 4, PatternSize: 4, Seed: 32})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	frag := fragment.Partition(g, 4, fragment.Hash)
	res := disVal(g, frag, set, Options{N: 4})
	if res.BytesShipped <= 0 {
		t.Error("fragmented detection must ship data")
	}
	if res.Rounds <= 0 || res.MaxReceived <= 0 || res.ModeledComm() <= 0 {
		t.Errorf("communication must be counted: %d rounds, %d bytes into the busiest receiver", res.Rounds, res.MaxReceived)
	}
	if res.PrefetchUnits+res.PartialUnits != res.Units {
		t.Errorf("strategy counts %d+%d != units %d",
			res.PrefetchUnits, res.PartialUnits, res.Units)
	}
}

func TestDisValShipsLessThanDisnop(t *testing.T) {
	// The Fig. 5(j-l) shape: the optimized disVal ships less than disnop
	// (which never deduplicates symmetric units and always prefetches
	// whole blocks). A skewed graph gives blocks big enough for the
	// partial-match alternative to engage.
	g := gen.Synthetic(gen.SyntheticConfig{Nodes: 4000, Edges: 12000, Skew: 0.8, Seed: 41})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 5, PatternSize: 4, TwoCompFrac: 0.4, Seed: 42})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	frag := fragment.Partition(g, 4, fragment.Hash)
	smart := disVal(g, frag, set, Options{N: 4})
	nop := disVal(g, frag, set, Options{N: 4, NoOptimize: true})
	if smart.BytesShipped >= nop.BytesShipped {
		t.Errorf("disVal shipped %d, disnop %d — optimization ineffective",
			smart.BytesShipped, nop.BytesShipped)
	}
	if !smart.Violations.Equal(nop.Violations) {
		t.Error("shipping strategy must not change the violation set")
	}
}

// heavyHubGraph is 30 hubs, each linked to 50 "leaf" and 50 "junk" nodes
// carrying a long attribute: blocks are large enough in bytes for disVal to
// weigh partial-match shipping, and the junk half never simulates the
// rule's pattern, so partial shipping wins on some units.
func heavyHubGraph() (*graph.Graph, *core.Set) {
	g := graph.New(0, 0)
	heavy := strings.Repeat("x", 200)
	for h := 0; h < 30; h++ {
		hub := g.AddNode("hub", graph.Attrs{"val": fmt.Sprint(h)})
		for i := 0; i < 50; i++ {
			k := "ok"
			if (h+i)%7 == 0 {
				k = "bad"
			}
			g.MustAddEdge(hub, g.AddNode("leaf", graph.Attrs{"k": k, "pad": heavy}), "e")
			g.MustAddEdge(hub, g.AddNode("junk", graph.Attrs{"pad": heavy}), "e")
		}
	}
	q := pattern.New()
	x := q.AddNode("x", "hub")
	y := q.AddNode("y", "leaf")
	q.AddEdge(x, y, "e")
	return g, core.MustNewSet(core.MustNew("leaf_ok", q, nil, []core.Literal{core.Const("y", "k", "ok")}))
}

// TestDisValKeepsAdoptedGraphHollow: disVal's partial-match estimate runs
// graph simulation on the bundle's snapshot, so a store-adopted graph
// stays sealed, and its shipping decisions and shipment counters equal
// the heap graph's.
func TestDisValKeepsAdoptedGraphHollow(t *testing.T) {
	heap, set := heavyHubGraph()
	flat, err := heap.Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := graph.AdoptFlat(flat)
	if err != nil {
		t.Fatal(err)
	}
	adopted := snap.Graph()
	opt := Options{N: 4, NoReduce: true}

	got := disVal(adopted, fragment.Partition(adopted, 4, fragment.Hash), set, opt)
	want := disVal(heap, fragment.Partition(heap, 4, fragment.Hash), set, opt)
	if want.PartialUnits == 0 {
		t.Fatal("no unit shipped partial matches; the simulation path is not exercised")
	}
	if got.PrefetchUnits != want.PrefetchUnits || got.PartialUnits != want.PartialUnits {
		t.Errorf("prefetch/partial units: adopted %d/%d, heap %d/%d",
			got.PrefetchUnits, got.PartialUnits, want.PrefetchUnits, want.PartialUnits)
	}
	if gc, wc := counters(got), counters(want); gc != wc {
		t.Errorf("shipment counters (bytes, messages, rounds, max received): adopted %v, heap %v", gc, wc)
	}
	if !got.Violations.Equal(want.Violations) || len(want.Violations) == 0 {
		t.Errorf("violations: adopted %d, heap %d", len(got.Violations), len(want.Violations))
	}

	// The graph is still sealed, and a string-form read is answered from
	// its snapshot, allocating in proportion to the answer, not to |V|.
	if !adopted.Sealed() {
		t.Error("disVal unsealed the adopted graph")
	}
	labels := adopted.Labels()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	adopted.Labels()
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(4+2*len(labels)) {
		t.Errorf("Labels() of %d labels allocated %d times over %d nodes", len(labels), allocs, adopted.NumNodes())
	}
}

// TestDisValHeavyHubStrategyGolden pins disVal's absolute strategy choice
// on heavyHubGraph at n = 4: every unit ships partial matches, and the
// partial-match bytes are the simulation's pair count off each worker's
// fragment, so a change to the simulation moves the byte counter here even
// where adopted and heap graphs would move together. The values were
// recorded at commit c129f12fd5a6.
func TestDisValHeavyHubStrategyGolden(t *testing.T) {
	g, set := heavyHubGraph()
	res := disVal(g, fragment.Partition(g, 4, fragment.Hash), set, Options{N: 4, NoReduce: true})
	if res.PrefetchUnits != 0 || res.PartialUnits != 120 {
		t.Errorf("prefetch/partial units = %d/%d, want 0/120", res.PrefetchUnits, res.PartialUnits)
	}
	want := shipCounters{bytes: 123840, messages: 132, rounds: 4, maxReceived: 28080}
	if got := counters(res); got != want {
		t.Errorf("shipment counters = %+v, want %+v", got, want)
	}
	if len(res.Violations) != 215 {
		t.Errorf("violations = %d, want 215", len(res.Violations))
	}
}

func TestSplitThresholdProducesStripes(t *testing.T) {
	g := gen.Synthetic(gen.SyntheticConfig{Nodes: 400, Edges: 1600, Skew: 0.8, Seed: 51})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 3, PatternSize: 4, Seed: 52})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	want := detVio(g, set)
	res := repVal(g, set, Options{N: 4, SplitThreshold: 8})
	if res.SplitUnits == 0 {
		t.Skip("no unit exceeded the threshold; nothing to verify")
	}
	if !res.Violations.Equal(want) {
		t.Error("splitting changed the violation set")
	}
}

func TestWorkloadReductionPreservesViolationsModuloRuleNames(t *testing.T) {
	// Two duplicate rules: reduction drops one; the violating *entities*
	// are unchanged even though rule attribution shrinks.
	g := paperG1()
	f1 := phi1()
	f2 := phi1()
	f2.Name = "phi1_dup"
	set := core.MustNewSet(f1, f2)
	res := repVal(g, set, Options{N: 2})
	if res.Rules != 1 {
		t.Errorf("reduction kept %d rules, want 1", res.Rules)
	}
	full := detVio(g, core.MustNewSet(f1))
	if len(res.Violations) != len(full) {
		t.Errorf("reduced set found %d violations, one copy finds %d",
			len(res.Violations), len(full))
	}
	// Rule attribution may name either duplicate; the violating entities
	// are what must coincide.
	if len(violatingNodes(res.Violations)) != len(violatingNodes(full)) {
		t.Error("reduced set must flag the same entities as one copy")
	}
	// NoReduce keeps both.
	res2 := repVal(g, set, Options{N: 2, NoReduce: true})
	if res2.Rules != 2 {
		t.Errorf("NoReduce kept %d rules", res2.Rules)
	}
	if len(res2.Violations) != 2*len(full) {
		t.Errorf("both duplicates must report: %d vs %d", len(res2.Violations), 2*len(full))
	}
}

func TestViolationReportHelpers(t *testing.T) {
	r := Report{
		{Rule: "b", Match: core.Match{2, 1}},
		{Rule: "a", Match: core.Match{0, 1}},
	}
	r.Sort()
	if r[0].Rule != "a" {
		t.Error("Sort must order by rule")
	}
	if r[0].Key() != "a,0,1" {
		t.Errorf("Key = %q", r[0].Key())
	}
	if !r.Equal(Report{{Rule: "a", Match: core.Match{0, 1}}, {Rule: "b", Match: core.Match{2, 1}}}) {
		t.Error("Equal must ignore order")
	}
	if r.Equal(Report{{Rule: "a", Match: core.Match{0, 1}}}) {
		t.Error("different sizes must differ")
	}
	if nodes := violatingNodes(r); !slices.Equal(nodes, []graph.NodeID{0, 1, 2}) {
		t.Errorf("violating entities = %v, want [0 1 2]", nodes)
	}
}

func TestEmptyRuleSet(t *testing.T) {
	g := paperG1()
	set := core.MustNewSet()
	if len(detVio(g, set)) != 0 {
		t.Error("empty Σ yields no violations")
	}
	res := repVal(g, set, Options{N: 2})
	if len(res.Violations) != 0 || res.Units != 0 {
		t.Error("empty Σ: empty parallel result")
	}
}

// TestMultiQueryGroupingSharesPatterns: rules on isomorphic patterns share
// a group, and so one enumeration, when their pivots agree. Two rules whose
// constant X sits on the same node and attribute stay together, the pivot
// seeded with both constants; a third whose constant sits
// on the other node seeds a different pivot and splits off. Each reports
// separately either way.
func TestMultiQueryGroupingSharesPatterns(t *testing.T) {
	capital := func(country, city pattern.Var) *pattern.Pattern {
		q := pattern.New()
		q.AddEdge(q.AddNode(country, "country"), q.AddNode(city, "city"), "capital")
		return q
	}
	f1 := core.MustNew("r1", capital("x", "y"), []core.Literal{core.Const("x", "val", "Oz")},
		[]core.Literal{core.VarEq("x", "val", "y", "val")})
	f2 := core.MustNew("r2", capital("a", "b"), []core.Literal{core.Const("a", "val", "Atlantis")},
		[]core.Literal{core.Const("b", "val", "yyy")})
	f3 := core.MustNew("r3", capital("c", "d"), []core.Literal{core.Const("d", "val", "Emerald")},
		[]core.Literal{core.Const("c", "val", "Kansas")})

	g := graph.New(0, 0)
	for _, pair := range [][2]string{{"Oz", "Emerald"}, {"Atlantis", "Poseidonia"}, {"Kansas", "Topeka"}} {
		g.MustAddEdge(g.AddNode("country", graph.Attrs{"val": pair[0]}), g.AddNode("city", graph.Attrs{"val": pair[1]}), "capital")
	}

	for _, tc := range []struct {
		set            *core.Set
		groups, units  int
		seedsOfFirst   []string
		violationsWant int
	}{
		{core.MustNewSet(f1, f2), 1, 2, []string{"val=Atlantis", "val=Oz"}, 2},
		{core.MustNewSet(f1, f2, f3), 2, 3, []string{"val=Atlantis", "val=Oz"}, 3},
	} {
		res := repVal(g, tc.set, Options{N: 2, NoReduce: true})
		if units := pivotVectors(t, g, tc.set, Options{N: 2, NoReduce: true}); res.Groups != tc.groups || units != tc.units {
			t.Errorf("%d rules: %d groups, %d pivot vectors; want %d and %d", tc.set.Len(), res.Groups, units, tc.groups, tc.units)
		}
		b := NewBundle(g, tc.set)
		_, groups, _ := b.ruleGroupsKeyed(Options{N: 2, NoReduce: true}.Normalized())
		if got := seedNames(b.Topo().Syms(), groups[0].pivot.Seeds(0)); !slices.Equal(got, tc.seedsOfFirst) {
			t.Errorf("%d rules: shared group seeds %v, want %v", tc.set.Len(), got, tc.seedsOfFirst)
		}
		want := detVio(g, tc.set)
		if len(want) != tc.violationsWant || !res.Violations.Equal(want) {
			t.Errorf("%d rules: grouped result %v, sequential %v", tc.set.Len(), res.Violations, want)
		}
	}
}
