// Tests for the overlay-owned update lifecycle: Session.Apply patches the
// maintained overlay only, so the session's graph is sealed over the
// patched view (a store-adopted graph is sealed from the start), every
// read of the graph agrees with a twin that took the same updates
// directly, and the overlay is the graph's one writer.
package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// adopt saves g's snapshot and opens it as store-adopted, the way
// gfdcheck and gfd.OpenSnapshot load a .gfds file. The mapping is closed
// with the test.
func adopt(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gfds")
	if err := store.Save(context.Background(), g.Freeze(), path); err != nil {
		t.Fatal(err)
	}
	l, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l.Snapshot().Graph()
}

// oracleReport is Vio(Σ, G) from the legacy matcher over the string graph
// and the map-based GFD.IsViolation: independent of snapshots, overlays
// and guards.
func oracleReport(g *graph.Graph, set *core.Set) validate.Report {
	var out validate.Report
	for _, f := range set.Rules() {
		match.Enumerate(g, f.Q, match.Options{}, func(h core.Match) bool {
			if f.IsViolation(g, h) {
				out = append(out, validate.Violation{Rule: f.Name, Match: slices.Clone(h)})
			}
			return true
		})
	}
	out.Sort()
	return out
}

// mirror applies ups to the twin directly, checking that inserted nodes
// get the IDs the session reported.
func mirror(t *testing.T, twin *graph.Graph, ups []incremental.Update, ids []graph.NodeID) {
	t.Helper()
	var got []graph.NodeID
	for _, up := range ups {
		switch u := up.(type) {
		case incremental.AddNode:
			got = append(got, twin.AddNode(u.Label, u.Attrs.Clone()))
		case incremental.AddEdge:
			twin.MustAddEdge(u.From, u.To, u.Label)
		case incremental.SetAttr:
			twin.SetAttr(u.Node, u.Attr, u.Value)
		}
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("session inserted nodes %v, twin %v", ids, got)
	}
}

// randomBatch draws n mixed updates over the first nodes node IDs.
func randomBatch(rng *rand.Rand, n, nodes int, labels []string, tag string) []incremental.Update {
	var ups []incremental.Update
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			ups = append(ups, incremental.SetAttr{Node: graph.NodeID(rng.Intn(nodes)), Attr: "val", Value: fmt.Sprintf("%s%d", tag, rng.Intn(4))})
		case 1:
			ups = append(ups, incremental.AddNode{Label: labels[rng.Intn(len(labels))], Attrs: graph.Attrs{"val": fmt.Sprintf("%s%d", tag, i)}})
		default:
			ups = append(ups, incremental.AddEdge{From: graph.NodeID(rng.Intn(nodes)), To: graph.NodeID(rng.Intn(nodes)), Label: "capital"})
		}
	}
	return ups
}

// halfEdges renders an adjacency list as a sorted multiset.
func halfEdges(es []graph.HalfEdge) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%s>%d", e.Label, e.To)
	}
	slices.Sort(out)
	return out
}

// requireGraphsAgree compares every read of the session's graph with the
// twin's.
func requireGraphsAgree(t *testing.T, g, twin *graph.Graph) {
	t.Helper()
	if g.NumNodes() != twin.NumNodes() || g.NumEdges() != twin.NumEdges() {
		t.Fatalf("graph |V|=%d |E|=%d, twin %d %d", g.NumNodes(), g.NumEdges(), twin.NumNodes(), twin.NumEdges())
	}
	for v := 0; v < twin.NumNodes(); v++ {
		id := graph.NodeID(v)
		if !slices.Equal(g.Neighborhood(id, 2), twin.Neighborhood(id, 2)) {
			t.Fatalf("2-hop neighbourhood of %d differs from the twin's", v)
		}
	}
	for v := 0; v < twin.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.Label(id) != twin.Label(id) {
			t.Fatalf("Label(%d) = %q, twin %q", v, g.Label(id), twin.Label(id))
		}
		got, ok := g.Attr(id, "val")
		want, wok := twin.Attr(id, "val")
		if got != want || ok != wok {
			t.Fatalf("Attr(%d, val) = %q %v, twin %q %v", v, got, ok, want, wok)
		}
		if fmt.Sprint(g.NodeAttrs(id)) != fmt.Sprint(twin.NodeAttrs(id)) {
			t.Fatalf("NodeAttrs(%d) = %v, twin %v", v, g.NodeAttrs(id), twin.NodeAttrs(id))
		}
		if !slices.Equal(halfEdges(g.Out(id)), halfEdges(twin.Out(id))) || !slices.Equal(halfEdges(g.In(id)), halfEdges(twin.In(id))) {
			t.Fatalf("adjacency of %d differs from the twin's", v)
		}
		for _, e := range twin.Out(id) {
			if !g.HasEdge(id, e.To, e.Label) {
				t.Fatalf("HasEdge(%d, %d, %s) = false on the graph", v, e.To, e.Label)
			}
		}
	}
	for _, l := range twin.Labels() {
		if !slices.Equal(g.NodesWithLabel(l), twin.NodesWithLabel(l)) {
			t.Fatalf("NodesWithLabel(%s) = %v, twin %v", l, g.NodesWithLabel(l), twin.NodesWithLabel(l))
		}
	}
}

// capitalBase is a country/city graph of the given size for the capital
// rule set: every country has two capital cities with distinct values.
func capitalBase(countries int) *graph.Graph {
	g := graph.New(3*countries, 2*countries)
	for i := 0; i < countries; i++ {
		c := g.AddNode("country", graph.Attrs{"val": fmt.Sprintf("C%d", i)})
		g.MustAddEdge(c, g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("a%d", i)}), "capital")
		g.MustAddEdge(c, g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("b%d", i%7)}), "capital")
	}
	return g
}

// TestApplyLifecycleMatchesTwin pins the lifecycle on a heap-built and a
// store-adopted graph: after each Apply the session's graph reads like a
// twin that took the same updates directly; a direct mutation of the
// sealed graph writes through the shared overlay without building a
// snapshot, and the next Detect and the detector's sweep still equal the
// oracle; and a session Apply that compacts while a detector shares the
// old overlay leaves both sides correct.
func TestApplyLifecycleMatchesTwin(t *testing.T) {
	ctx := context.Background()
	_, set, _ := capitalWorkload()
	for _, adopted := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopted=%v", adopted), func(t *testing.T) {
			g := capitalBase(40)
			twin := g.Clone()
			if adopted {
				g = adopt(t, g)
			}
			sess := mustOpen(t, g)
			prep, err := sess.Prepare(set)
			if err != nil {
				t.Fatal(err)
			}
			det := sess.Incremental(set)
			detect := func(stage string) {
				t.Helper()
				want := oracleReport(twin, set)
				res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineReplicated, N: 2})
				if err != nil {
					t.Fatal(err)
				}
				if got := validate.Report(res.Violations); !got.Equal(want) {
					t.Fatalf("%s: Detect found %d violations, oracle %d", stage, len(got), len(want))
				}
			}
			rng := rand.New(rand.NewSource(3))
			labels := []string{"country", "city"}
			for round := 0; round < 3; round++ {
				ups := randomBatch(rng, 9, g.NumNodes(), labels, "s")
				mirror(t, twin, ups, sess.Apply(ups...))
				requireGraphsAgree(t, g, twin)
				detect(fmt.Sprintf("round %d", round))
			}
			// The detector missed the session's batches: an empty Apply
			// re-syncs it with a full sweep.
			det.Apply()
			if got := det.Report(); !got.Equal(oracleReport(twin, set)) {
				t.Fatalf("detector reports %d violations, oracle %d", len(got), len(oracleReport(twin, set)))
			}

			// A direct mutation of the sealed graph is a write through the
			// shared overlay: the overlay stays synced and builds nothing,
			// and only the detector, which did not make the write, is
			// desynced.
			ov, before := det.Overlay(), g.SnapshotBuilds()
			g.SetAttr(0, "val", "direct")
			twin.SetAttr(0, "val", "direct")
			if !g.Sealed() || !ov.Synced() || graph.NewOverlay(g) != ov {
				t.Fatal("a direct mutation of a sealed graph must write through its live overlay")
			}
			if det.Synced() || g.SnapshotBuilds() != before {
				t.Fatalf("after a direct mutation: detector synced %v, %d snapshots built; want false and 0", det.Synced(), g.SnapshotBuilds()-before)
			}
			requireGraphsAgree(t, g, twin)
			detect("after a direct mutation")
			// The detector folds the write in by a sweep on its next Apply,
			// and the session keeps writing through the same overlay.
			ups := randomBatch(rng, 6, g.NumNodes(), labels, "d")
			mirror(t, twin, ups, det.Apply(ups...))
			if got := det.Report(); !got.Equal(oracleReport(twin, set)) {
				t.Fatalf("recovered detector reports %d violations, oracle %d", len(got), len(oracleReport(twin, set)))
			}
			ups = randomBatch(rng, 6, g.NumNodes(), labels, "s")
			mirror(t, twin, ups, sess.Apply(ups...))
			detect("after recovery")

			// A session Apply large enough to compact, while the detector
			// still holds the overlay it shared.
			builds := g.SnapshotBuilds()
			ups = randomBatch(rng, g.Size()/3, g.NumNodes(), labels, "c")
			mirror(t, twin, ups, sess.Apply(ups...))
			if g.SnapshotBuilds() != builds+1 {
				t.Fatalf("compacting Apply built %d snapshots, want 1", g.SnapshotBuilds()-builds)
			}
			requireGraphsAgree(t, g, twin)
			detect("after compaction")
			ups = randomBatch(rng, 6, g.NumNodes(), labels, "d")
			mirror(t, twin, ups, det.Apply(ups...))
			if got := det.Report(); !got.Equal(oracleReport(twin, set)) {
				t.Fatalf("detector after the session's compaction reports %d violations, oracle %d", len(got), len(oracleReport(twin, set)))
			}
			detect("detector after compaction")
		})
	}
}

// mallocs returns the heap allocations fn makes.
func mallocs(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// requireSealed fails unless g is still sealed and a map-shaped read of
// it allocates in proportion to its answer, not to |V|: it is answered
// from the read source, not from maps built for it.
func requireSealed(t *testing.T, g *graph.Graph) {
	t.Helper()
	if !g.Sealed() {
		t.Fatal("the graph is no longer sealed")
	}
	answer := len(g.NodeAttrs(0)) + len(g.Out(0))
	if allocs := mallocs(func() { g.NodeAttrs(0); g.Out(0) }); allocs > uint64(4+2*answer) {
		t.Errorf("NodeAttrs(0) and Out(0), %d entries in all, allocated %d times over a %d-node graph", answer, allocs, g.NumNodes())
	}
}

// TestApplyKeepsAdoptedGraphHollow: Session.Apply over a store-adopted
// graph allocates in proportion to the batch, not the graph — copying the
// graph onto the heap would allocate per node — and leaves the graph
// sealed.
func TestApplyKeepsAdoptedGraphHollow(t *testing.T) {
	ctx := context.Background()
	_, set, _ := capitalWorkload()
	g := adopt(t, capitalBase(4000))
	n := g.NumNodes()
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential}); err != nil {
		t.Fatal(err)
	}
	ups := randomBatch(rand.New(rand.NewSource(5)), 30, n, []string{"country", "city"}, "u")
	if allocs := mallocs(func() { sess.Apply(ups...) }); allocs > uint64(32*len(ups)) {
		t.Errorf("Apply of %d updates over a %d-node adopted graph allocated %d times: it thawed the graph", len(ups), n, allocs)
	}
	requireSealed(t, g)
	if g.SnapshotBuilds() != 0 {
		t.Errorf("Apply below the compaction fraction built %d snapshots", g.SnapshotBuilds())
	}
}

// TestBigDansingKeepsAdoptedGraphHollow: EngineBigDansing encodes its
// relational tables from the bundle's topology, so a Detect over a
// store-adopted graph leaves it sealed and reports what the sequential
// engine reports.
func TestBigDansingKeepsAdoptedGraphHollow(t *testing.T) {
	ctx := context.Background()
	_, set, _ := capitalWorkload()
	g := adopt(t, capitalBase(300))
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	got, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineBigDansing, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Violations) == 0 || !got.Violations.Equal(want.Violations) {
		t.Fatalf("EngineBigDansing reports %d violations, sequential %d", len(got.Violations), len(want.Violations))
	}
	requireSealed(t, g)
}

// TestSeededScanFollowsOverlayWrites runs constant-X rules through every
// scan that starts a component from the holders of its constant, over the
// session's overlay as writes move that constant around. Rule seed's
// constant sits on the node its search opens with, so the scan iterates
// the holders of p3 instead of the person class; rule far's constant sits
// on a person joined from a country, so its search opens on the country
// class, unseeded; rule lone is one seeded node. After each step the
// sequential stream, sequential Detect and the GCFD baseline must equal
// the oracle on a fresh copy of the graph: a node newly takes the value,
// the base holder loses it, gets it back, an inserted node carries it,
// and a batch compacts the overlay into a new base.
func TestSeededScanFollowsOverlayWrites(t *testing.T) {
	ctx := context.Background()
	g := graph.New(64, 96)
	var persons, cities, countries []graph.NodeID
	for i := 0; i < 20; i++ {
		cities = append(cities, g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("c%d", i)}))
	}
	for i := 0; i < 2; i++ {
		countries = append(countries, g.AddNode("country", graph.Attrs{"val": fmt.Sprintf("k%d", i)}))
	}
	for i := 0; i < 40; i++ {
		p := g.AddNode("person", graph.Attrs{"val": fmt.Sprintf("p%d", i)})
		g.MustAddEdge(p, cities[i%len(cities)], "born_in")
		g.MustAddEdge(p, countries[i%2], "lives_in")
		persons = append(persons, p)
	}
	path := func(name, from, label, to string, x, y []core.Literal) *core.GFD {
		q := pattern.New()
		q.AddEdge(q.AddNode("x", from), q.AddNode("z", to), label)
		return core.MustNew(name, q, x, y)
	}
	lone := pattern.New()
	lone.AddNode("x", "person")
	p3 := core.Const("x", "val", "p3")
	set := core.MustNewSet(
		path("seed", "person", "born_in", "city", []core.Literal{p3}, []core.Literal{core.Const("z", "val", "c0")}),
		path("far", "person", "lives_in", "country", []core.Literal{p3}, []core.Literal{core.Const("z", "val", "k9")}),
		core.MustNew("lone", lone, []core.Literal{p3}, []core.Literal{core.Const("x", "age", "old")}),
	)
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, dropped := prep.GCFDRules(); dropped != 0 {
		t.Fatalf("the GCFD baseline drops %d of the path rules", dropped)
	}
	seq := validate.Options{Engine: validate.EngineSequential}
	check := func(step string) {
		t.Helper()
		want := oracleReport(g.Clone(), set)
		if len(want) == 0 {
			t.Fatalf("%s: the oracle finds no violation; the step shows nothing", step)
		}
		var streamed validate.Report
		for v, err := range prep.Violations(ctx, seq) {
			if err != nil {
				t.Fatal(err)
			}
			streamed = append(streamed, v)
		}
		streamed.Sort()
		if !streamed.Equal(want) {
			t.Fatalf("%s: sequential Violations %v, oracle %v", step, streamed.Keys(), want.Keys())
		}
		for _, opt := range []validate.Options{seq, {Engine: validate.EngineGCFD}} {
			res, err := prep.Detect(ctx, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Violations.Equal(want) {
				t.Fatalf("%s: %v Detect %v, oracle %v", step, opt.Engine, res.Violations.Keys(), want.Keys())
			}
		}
		// The matcher re-checks every candidate, so a holder list that
		// keeps a node which lost the value costs tries, not violations:
		// check the list the seeded scans read against its definition.
		view := prep.Bundle().Topo()
		syms := view.Syms()
		l, a, c := syms.Lookup("person"), syms.Lookup("val"), syms.Lookup("p3")
		var holders []graph.NodeID
		for _, v := range view.NodesWith(l) {
			if x, ok := view.AttrSym(v, a); ok && x == c {
				holders = append(holders, v)
			}
		}
		if got := view.AppendAttrHolders(nil, l, a, c); !slices.Equal(got, holders) {
			t.Fatalf("%s: holders of p3 %v, filtered person class %v", step, got, holders)
		}
	}
	check("base")
	sess.Apply(incremental.SetAttr{Node: persons[7], Attr: "val", Value: "p3"})
	check("a person newly holds p3")
	sess.Apply(incremental.SetAttr{Node: persons[3], Attr: "val", Value: "p30"})
	check("the base holder loses p3")
	sess.Apply(incremental.SetAttr{Node: persons[3], Attr: "val", Value: "p3"})
	check("the base holder gets p3 back")
	ids := sess.Apply(incremental.AddNode{Label: "person", Attrs: graph.Attrs{"val": "p3", "age": "young"}})
	sess.Apply(incremental.AddEdge{From: ids[0], To: cities[5], Label: "born_in"}, incremental.AddEdge{From: ids[0], To: countries[0], Label: "lives_in"})
	check("an inserted person holds p3")
	builds := g.SnapshotBuilds()
	var batch []incremental.Update
	for i := 0; i < 60; i++ {
		batch = append(batch, incremental.SetAttr{Node: persons[i%len(persons)], Attr: "age", Value: fmt.Sprint(i)})
	}
	batch = append(batch, incremental.SetAttr{Node: persons[11], Attr: "val", Value: "p3"}, incremental.SetAttr{Node: persons[7], Attr: "val", Value: "p7"})
	sess.Apply(batch...)
	if g.SnapshotBuilds() == builds {
		t.Fatal("a batch past the compaction fraction did not compact")
	}
	check("after a compaction")
	sess.Apply(incremental.SetAttr{Node: persons[12], Attr: "val", Value: "p3"})
	check("a write over the compacted base")
}
