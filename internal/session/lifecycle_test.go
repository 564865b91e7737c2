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
