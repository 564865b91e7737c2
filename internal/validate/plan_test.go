// Tests of the chunk planning path from outside the package, where the
// topology kinds the path must treat alike — heap snapshot, session
// overlay, store-adopted mapping — can all be built. The oracle and the
// plan accessors live in export_test.go.
package validate_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
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

// planVariants is N × NoOptimize, after one variant whose low threshold
// makes replicate-and-split cut heavy pivots on any graph.
func planVariants() []validate.Options {
	out := []validate.Options{{N: 2, SplitThreshold: 3}}
	for _, n := range []int{1, 2, 5} {
		for _, noOpt := range []bool{false, true} {
			out = append(out, validate.Options{N: n, NoOptimize: noOpt})
		}
	}
	return out
}

// checkPlan plans every variant on the bundle and holds the plan to the
// chunk rules and its survivors to the string-and-map oracle on g: per
// group component, the distinct ranges of the units cover the class once,
// in order; two-component groups hold every range pair (the pairs i ≤ j
// when deduplicated); stripes are one-member ranges, all residues present;
// and the survivors, concatenated in range order, are exactly the oracle's
// candidates. It returns how many stripes the variants cut.
func checkPlan(t *testing.T, kind string, g *graph.Graph, b *validate.Bundle) (split int) {
	t.Helper()
	for _, opt := range planVariants() {
		name := fmt.Sprintf("%s n=%d noopt=%v θ=%d", kind, opt.N, opt.NoOptimize, opt.SplitThreshold)
		img, err := b.Plan(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cands, err := b.PlanCandidates(opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(img.Units) == 0 {
			t.Fatalf("%s: no units planned", name)
		}
		shapes := b.GroupShapes(opt)
		type key struct {
			comp int
			r    workload.Range
		}
		for gi, gs := range shapes {
			got := map[key][]graph.NodeID{}
			pairs := map[[2]workload.Range]bool{}
			stripes := map[workload.Range][]int{}
			for ui, u := range img.Units {
				if u.Group != gi {
					continue
				}
				if len(u.Ranges) != len(gs.Pivots) {
					t.Fatalf("%s: group %d unit %d has %d ranges for %d pivots", name, gi, ui, len(u.Ranges), len(gs.Pivots))
				}
				for i, r := range u.Ranges {
					got[key{i, r}] = cands[ui][i]
				}
				if len(u.Ranges) == 2 {
					pairs[[2]workload.Range{u.Ranges[0], u.Ranges[1]}] = true
				}
				if u.StripeMod > 0 {
					if u.Ranges[0].Len() != 1 {
						t.Fatalf("%s: stripe over %v, want one member", name, u.Ranges[0])
					}
					stripes[u.Ranges[0]] = append(stripes[u.Ranges[0]], u.StripeRem)
				}
			}
			for r, rems := range stripes {
				slices.Sort(rems)
				for i, rem := range rems {
					if rem != i {
						t.Fatalf("%s: group %d stripes of %v have residues %v", name, gi, r, rems)
					}
				}
				split += len(rems)
			}
			for i := range gs.Pivots {
				var ranges []workload.Range
				for k := range got {
					if k.comp == i {
						ranges = append(ranges, k.r)
					}
				}
				slices.SortFunc(ranges, func(a, b workload.Range) int { return a.Lo - b.Lo })
				var survivors []graph.NodeID
				at := 0
				for _, r := range ranges {
					if r.Lo != at || r.Hi <= r.Lo {
						t.Fatalf("%s: group %d component %d ranges %v do not tile the class", name, gi, i, ranges)
					}
					at = r.Hi
					survivors = append(survivors, got[key{i, r}]...)
				}
				if n := gs.Pivot.ClassLen(b.Topo(), i); at != n {
					t.Fatalf("%s: group %d component %d ranges cover [0, %d) of a class of %d", name, gi, i, at, n)
				}
				if want := validate.OracleCandidates(g, b.Topo().Syms(), gs.Pivot, i); !slices.Equal(survivors, want) {
					t.Fatalf("%s: group %d component %d survivors %v, oracle %v", name, gi, i, survivors, want)
				}
				if len(gs.Pivots) == 2 && i == 1 {
					var r0 []workload.Range
					for k := range got {
						if k.comp == 0 {
							r0 = append(r0, k.r)
						}
					}
					for _, a := range r0 {
						for _, c := range ranges {
							want := !(gs.Pivot.Symmetric() && !opt.NoOptimize) || a.Lo <= c.Lo
							if pairs[[2]workload.Range{a, c}] != want {
								t.Fatalf("%s: group %d range pair %v %v planned %v, want %v", name, gi, a, c, !want, want)
							}
						}
					}
				}
			}
		}
	}
	return split
}

// TestPlanIdenticalToMapBasedOracle: on every topology kind — store-adopted
// mapping, heap snapshot, and the session overlay after two update batches
// — and every option variant, the chunk plan follows the chunk rules and
// the star tests its units run keep exactly the candidates an oracle reads
// through the mutable graph's strings and maps: seeds and pivot
// stars, over every class range once. The mapping and the heap snapshot of
// one graph plan identical chunks, and Apply drops the plan: the overlay's
// bundle runs every star test again.
func TestPlanIdenticalToMapBasedOracle(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 2} {
		g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: seed})
		set := planRules(g, seed+10)
		gen.Inject(g, gen.NoiseConfig{Rate: 0.1, Seed: seed + 20})
		addHubs(g, seed)
		if !slices.ContainsFunc(validate.NewBundle(g, set).GroupShapes(validate.Options{}), func(gs validate.GroupShape) bool {
			return slices.ContainsFunc(gs.Seeds, func(s []graph.AttrPair) bool { return len(s) > 0 })
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
		mmap := bundleOf(t, adopted, set).Bundle()
		split := checkPlan(t, "mmap", g, mmap)
		if builds := adopted.SnapshotBuilds(); builds != 0 {
			t.Fatalf("planning over the adopted snapshot built %d snapshots", builds)
		}

		sess, err := session.New(g)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := sess.Prepare(set)
		if err != nil {
			t.Fatal(err)
		}
		b := prep.Bundle()
		split += checkPlan(t, "heap", g, b)
		for _, opt := range planVariants() {
			x, _ := mmap.Plan(opt)
			y, _ := b.Plan(opt)
			if !reflect.DeepEqual(x.Units, y.Units) || !reflect.DeepEqual(x.Assign, y.Assign) {
				t.Fatalf("n=%d noopt=%v: the mapping and the heap snapshot plan different chunks", opt.N, opt.NoOptimize)
			}
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}

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
			if !b.Topo().Patched() {
				t.Fatalf("round %d: bundle runs on a frozen snapshot, want the session overlay", round)
			}
			split += checkPlan(t, fmt.Sprintf("overlay%d", round), g, b)
			units := 0
			for _, opt := range planVariants() {
				n, _ := b.ColdPlan(opt)
				units += n
			}
			if delta := b.EstimationStats().Measured - measured; delta != units {
				t.Fatalf("round %d ran %d star tests for %d planned units: want one each, the plan and its survivors dropped by Apply", round, delta, units)
			}
		}
		if split == 0 {
			t.Fatal("no variant cut a stripe — replicate-and-split went unchecked")
		}
	}
}

// addHubs gives the first member of every label class an edge from each
// of 48 other nodes, so that every class holds a node on the heavy-node
// list and replicate-and-split has pivots to cut.
func addHubs(g *graph.Graph, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, label := range g.Labels() {
		hub := g.NodesWithLabel(label)[0]
		for range 48 {
			if v := graph.NodeID(rng.Intn(g.NumNodes())); v != hub {
				g.MustAddEdge(v, hub, "near")
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
// star tests keep nearly the whole class and the plan's units enumerate
// tens of thousands of pivots. Y holds on every match, so detection emits
// nothing.
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
// unit runs: a fresh Bundle, then planFor — cutting the classes into
// chunks and balancing them. Run with -benchmem: allocs/op must stay in
// the hundreds whatever the class sizes.
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

// TestConcurrentColdPlansEqualSerialPlan plans every variant at once on one
// fresh bundle, each round running its units' star tests into the shared
// survivor memo, and requires the plans and survivors a serial pass over
// another fresh bundle produces. Run under -race, this is the check that
// the plan cache and the memo need no more locking than they have.
func TestConcurrentColdPlansEqualSerialPlan(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 40, Seed: 3})
	set := planRules(g, 13)
	b := validate.NewBundle(g, set)
	variants := planVariants()
	plans := make([]validate.PlanImage, len(variants))
	cands := make([][][][]graph.NodeID, len(variants))
	errs := make([]error, len(variants))
	var wg sync.WaitGroup
	for i, opt := range variants {
		wg.Add(2)
		go func() {
			defer wg.Done()
			plans[i], errs[i] = b.Plan(opt)
		}()
		go func() {
			defer wg.Done()
			c, err := b.PlanCandidates(opt)
			if err != nil {
				panic(err)
			}
			cands[i] = c
		}()
	}
	wg.Wait()
	serial := validate.NewBundle(g, set)
	for i, opt := range variants {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := serial.Plan(opt)
		if err != nil {
			t.Fatal(err)
		}
		wantCands, _ := serial.PlanCandidates(opt)
		if !reflect.DeepEqual(plans[i], want) || !reflect.DeepEqual(cands[i], wantCands) {
			t.Fatalf("variant %d (%+v) planned concurrently diverges from the serial plan", i, opt)
		}
	}
}
