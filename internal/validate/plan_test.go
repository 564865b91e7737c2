// Tests of the cold estimation and planning path from outside the package,
// where the topology kinds the path must treat alike — heap snapshot,
// session overlay, store-adopted mapping — can all be built. The oracle and
// the plan accessors live in export_test.go.
package validate_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"gfd/internal/core"
	"gfd/internal/exp"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/store"
	"gfd/internal/validate"
	"gfd/internal/workload"
)

// planRules adds, to rules mined on g (each with a constant X, so their
// pivots are seeded), one rule per assembly branch the mined ones may miss:
// a wildcard pivot (a list drawn from all nodes, which overlaps the
// labelled lists in the size tables), a seeded list overlapping an
// unseeded one at the same radius, two isomorphic single-node components (symmetric dedup
// on the diagonal range pairs), two components of different classes, and
// three components (the single-task cross product).
func planRules(g *graph.Graph, seed int64) *core.Set {
	rules := gen.MineGFDs(g, gen.MineConfig{NumRules: 5, PatternSize: 3, TwoCompFrac: 0.4, Seed: seed}).Rules()
	rules = append(rules, exp.Fig7Rules().Rules()...)

	hub := pattern.New()
	x := hub.AddNode("x", pattern.Wildcard)
	hub.AddEdge(x, hub.AddNode("y", "country"), "located_in")
	rules = append(rules, core.MustNew("plan_wild_hub", hub, nil, []core.Literal{core.Const("x", "val", "nowhere")}))

	// After the wildcard rule (and not implied by it), so a labelled list
	// asks for a radius the wildcard list already covers.
	town := pattern.New()
	c := town.AddNode("c", "city")
	town.AddEdge(c, town.AddNode("z", "country"), "located_in")
	rules = append(rules, core.MustNew("plan_town", town, nil, []core.Literal{core.Const("c", "val", "elsewhere")}))
	// The same pattern seeded on c: its list lies inside plan_town's at
	// the same radius, so each block is measured once.
	city, _ := g.Attr(g.NodesWithLabel("city")[0], "val")
	rules = append(rules, core.MustNew("plan_seeded_town", town, []core.Literal{core.Const("c", "val", city)},
		[]core.Literal{core.Const("z", "val", "nowhere")}))

	twins := pattern.New()
	twins.AddNode("a", "country")
	twins.AddNode("b", "country")
	rules = append(rules, core.MustNew("plan_twins", twins, []core.Literal{core.VarEq("a", "val", "b", "val")},
		[]core.Literal{core.Const("a", "val", "nowhere")}))

	mixed := pattern.New()
	mixed.AddNode("p", "party")
	mixed.AddNode("c", "country")
	rules = append(rules, core.MustNew("plan_mixed", mixed, []core.Literal{core.VarEq("p", "val", "c", "val")},
		[]core.Literal{core.Const("p", "val", "nowhere")}))

	triple := pattern.New()
	triple.AddNode("a", "party")
	triple.AddNode("b", "country")
	triple.AddNode("c", "class")
	rules = append(rules, core.MustNew("plan_triple", triple, []core.Literal{core.VarEq("a", "val", "b", "val")},
		[]core.Literal{core.Const("c", "val", "nowhere")}))
	return core.MustNewSet(rules...)
}

// planVariants is HistogramM × N × NoOptimize, after one variant whose low
// threshold makes replicate-and-split cut units on any graph.
func planVariants() []validate.Options {
	out := []validate.Options{{N: 2, SplitThreshold: 3}}
	for _, m := range []int{0, 1, 7} {
		for _, n := range []int{1, 2, 5} {
			for _, noOpt := range []bool{false, true} {
				out = append(out, validate.Options{HistogramM: m, N: n, NoOptimize: noOpt})
			}
		}
	}
	return out
}

// comparePlans runs every variant (the first one twice, for the reuse
// counter) on the bundle and on its oracle and requires identical plans
// and identical probe counters after every call.
func comparePlans(t *testing.T, kind string, b *validate.Bundle, oracle *validate.OracleEstimator) {
	t.Helper()
	variants := planVariants()
	split := 0
	for _, opt := range append(variants, variants[0]) {
		name := fmt.Sprintf("%s m=%d n=%d noopt=%v θ=%d", kind, opt.HistogramM, opt.N, opt.NoOptimize, opt.SplitThreshold)
		got, err := b.Plan(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := oracle.Plan(opt)
		if len(want.Units) == 0 {
			t.Fatalf("%s: the oracle planned no units — the comparison is vacuous", name)
		}
		if len(got.Units) != len(want.Units) {
			t.Fatalf("%s: %d units, oracle %d", name, len(got.Units), len(want.Units))
		}
		for i, u := range got.Units {
			w := want.Units[i]
			if u.Group != w.Group || u.BlockSize != w.BlockSize || u.StripeMod != w.StripeMod || u.StripeRem != w.StripeRem || !slices.Equal(u.Candidates, w.Candidates) {
				t.Fatalf("%s: unit %d is %+v, oracle %+v", name, i, u, w)
			}
		}
		if got.Split != want.Split || got.TotalWeight != want.TotalWeight || got.Makespan != want.Makespan {
			t.Fatalf("%s: split/totalWeight/makespan %d/%d/%d, oracle %d/%d/%d", name,
				got.Split, got.TotalWeight, got.Makespan, want.Split, want.TotalWeight, want.Makespan)
		}
		if !slices.EqualFunc(got.Assign, want.Assign, func(x, y []int) bool { return slices.Equal(x, y) }) {
			t.Fatalf("%s: assignment diverges from the oracle's", name)
		}
		if gs, ws := b.EstimationStats(), oracle.Stats(); gs != ws {
			t.Fatalf("%s: estimation counters %+v, oracle %+v", name, gs, ws)
		}
		split += want.Split
	}
	if split == 0 {
		t.Fatalf("%s: no variant split a unit — replicate-and-split went uncompared", kind)
	}
}

// TestPlanIdenticalToMapBasedOracle is the plan-identity differential: on
// every topology kind and option variant the flat estimator must produce
// the plan of the map-based one it replaced — same units in the same order
// with the same block sizes, same split, same assignment — and move the
// probe counters alike, including across Session.Apply, where both must
// re-measure exactly the blocks the update touched. The oracle derives the
// candidate sets itself — seed filters and pivot stars — through the
// mutable graph's strings, and measures each (node, radius) once however
// many lists request it.
func TestPlanIdenticalToMapBasedOracle(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: seed})
		set := planRules(g, seed+10)
		gen.Inject(g, gen.NoiseConfig{Rate: 0.1, Seed: seed + 20})
		if !slices.ContainsFunc(validate.NewBundle(g, set).GroupShapes(validate.Options{}), func(gs validate.GroupShape) bool {
			return slices.ContainsFunc(gs.Filters, workload.Filter.Active)
		}) {
			t.Fatal("no group of planRules is seeded; the seeded plans go uncompared")
		}

		// Store-adopted mapping first, off the still unmutated graph.
		path := filepath.Join(t.TempDir(), "g.gfds")
		if err := store.Save(ctx, g.Freeze(), path); err != nil {
			t.Fatal(err)
		}
		loaded, err := store.Open(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		adopted := loaded.Snapshot().Graph()
		comparePlans(t, "mmap", bundleOf(t, adopted, set).Bundle(), validate.NewOracle(bundleOf(t, adopted, set).Bundle()))
		if builds := adopted.SnapshotBuilds(); builds != 0 {
			t.Fatalf("planning over the adopted snapshot built %d snapshots", builds)
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}

		// Heap snapshot, then the same session's overlay after two update
		// batches: snapshot → overlay and overlay → overlay inheritance.
		sess, err := session.New(g)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := sess.Prepare(set)
		if err != nil {
			t.Fatal(err)
		}
		b := prep.Bundle()
		oracle := validate.NewOracle(b)
		comparePlans(t, "heap", b, oracle)

		rng := rand.New(rand.NewSource(seed + 30))
		countries := g.NodesWithLabel("country")
		for round := 0; round < 2; round++ {
			measured := b.EstimationStats().Measured
			ids := sess.Apply(
				incremental.AddNode{Label: "country", Attrs: graph.Attrs{"val": fmt.Sprintf("new%d", round)}},
				incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": fmt.Sprintf("town%d", round)}},
				incremental.SetAttr{Node: countries[rng.Intn(len(countries))], Attr: "val", Value: "renamed"},
			)
			sess.Apply(
				incremental.AddEdge{From: ids[1], To: ids[0], Label: "located_in"},
				incremental.AddEdge{From: graph.NodeID(rng.Intn(g.NumNodes())), To: countries[rng.Intn(len(countries))], Label: "located_in"},
			)
			b = prep.Bundle()
			if _, ok := b.Topo().(*graph.Overlay); !ok {
				t.Fatalf("round %d: bundle runs on %T, want the session overlay", round, b.Topo())
			}
			oracle = oracle.InheritedBy(b)
			comparePlans(t, fmt.Sprintf("overlay%d", round), b, oracle)
			if delta := b.EstimationStats().Measured - measured; delta == 0 || delta >= measured {
				t.Fatalf("round %d re-measured %d blocks of %d: want some, not all", round, delta, measured)
			}
		}
	}
}

// TestStripeNodeIsPivotNeighbour: for every group shape of planRules — the
// mined rules, Fig. 7's, a wildcard hub, single-node components — the node
// stripes filter on is the lowest-index non-pivot node adjacent to a
// pivot, and -1 exactly when every node is a pivot.
func TestStripeNodeIsPivotNeighbour(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 1})
	b := validate.NewBundle(g, planRules(g, 11))
	checked := 0
	for _, noOpt := range []bool{false, true} {
		for _, gs := range b.GroupShapes(validate.Options{NoOptimize: noOpt}) {
			want := -1
			for _, z := range gs.Pivots {
				for _, ei := range gs.Q.OutEdges(z) {
					if w := gs.Q.Edges[ei].To; !slices.Contains(gs.Pivots, w) && (want < 0 || w < want) {
						want = w
					}
				}
				for _, ei := range gs.Q.InEdges(z) {
					if w := gs.Q.Edges[ei].From; !slices.Contains(gs.Pivots, w) && (want < 0 || w < want) {
						want = w
					}
				}
			}
			if gs.Stripe != want {
				t.Fatalf("pattern %s pivots %v: stripe node %d, want %d", gs.Q, gs.Pivots, gs.Stripe, want)
			}
			if (want < 0) != (gs.Q.NumNodes() == len(gs.Pivots)) {
				t.Fatalf("pattern %s pivots %v: stripe node %d, yet %d nodes", gs.Q, gs.Pivots, want, gs.Q.NumNodes())
			}
			if want >= 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no group could split; the test is vacuous")
	}
}

func bundleOf(t testing.TB, g *graph.Graph, set *core.Set) *session.Prepared {
	t.Helper()
	sess, err := session.New(g)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// coldPlanWorkload is a cold default-engine workload at benchmark scale:
// the DBpedia-like graph of kb_cold_rep with three X = ∅ rules whose pivot
// stars almost every person has (a birthplace, a parent, or both), so the
// candidate lists stay class-sized and the plan holds tens of thousands of
// units. Y holds on every match, so detection emits nothing.
func coldPlanWorkload() (*graph.Graph, *core.Set) {
	g := gen.DBpediaLike(gen.DatasetConfig{Scale: 6000, Seed: 1})
	g.Freeze()
	person := func(born, parent bool) *pattern.Pattern {
		q := pattern.New()
		x := q.AddNode("x", "person")
		if born {
			q.AddEdge(x, q.AddNode("c", "city"), "born_in")
		}
		if parent {
			q.AddEdge(x, q.AddNode("y", "person"), "has_parent")
		}
		return q
	}
	// A distinct Y per rule, so that none implies another.
	same := func(v pattern.Var) []core.Literal { return []core.Literal{core.VarEq(v, "val", v, "val")} }
	return g, core.MustNewSet(
		core.MustNew("born", person(true, false), nil, same("c")),
		core.MustNew("parent", person(false, true), nil, same("y")),
		core.MustNew("born_parent", person(true, true), nil, same("x")),
	)
}

// BenchmarkColdPlan times what a cold repVal round pays before its first
// unit runs: a fresh Bundle, then planFor — filtering and value-sorting
// the candidate lists, measuring every block, assembling, splitting and balancing the
// units. Run with -benchmem: allocs/op must stay in the hundreds while
// the plan holds some 18 000 units.
func BenchmarkColdPlan(b *testing.B) {
	g, set := coldPlanWorkload()
	opt := validate.Options{N: 2}
	b.ReportAllocs()
	for b.Loop() {
		if units, err := validate.NewBundle(g, set).ColdPlan(opt); err != nil || units == 0 {
			b.Fatalf("cold plan: %d units, %v", units, err)
		}
	}
}

// TestConcurrentColdPlansShareSizeTables plans every variant at once on one
// fresh bundle: the rounds race to create, grow and fill the same per-radius
// tables, and each must still come out with the oracle's plan. Run under
// -race, this is the check that the tables need no lock.
func TestConcurrentColdPlansShareSizeTables(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	set := planRules(g, 13)
	b := validate.NewBundle(g, set)
	variants := planVariants()
	plans := make([]validate.PlanImage, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, opt := range variants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			plans[i], errs[i] = b.Plan(opt)
		}()
	}
	wg.Wait()
	oracle := validate.NewOracle(validate.NewBundle(g, set))
	for i, opt := range variants {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want := oracle.Plan(opt)
		same := len(plans[i].Units) == len(want.Units) && plans[i].Split == want.Split && plans[i].Makespan == want.Makespan
		for j := 0; same && j < len(want.Units); j++ {
			u, w := plans[i].Units[j], want.Units[j]
			same = u.Group == w.Group && u.BlockSize == w.BlockSize && slices.Equal(u.Candidates, w.Candidates)
		}
		if !same {
			t.Fatalf("variant %d (%+v) planned concurrently diverges from the oracle", i, opt)
		}
	}
}
