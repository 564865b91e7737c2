// The metamorphic harness: Vio(Σ, G) is a set with one right answer, so
// every way of computing it must produce the same bytes — at every chunk
// granularity, for N = 1…4, from the sequential, replicated, fragmented
// and multi-process engines and the BigDansing baseline, over a heap
// snapshot, a session overlay after Apply, a store-adopted mapping and
// per-fragment shards — and again over a graph whose labels were first
// used after its freeze, so its adjacency ranks them out of code order
// (lateLabels). Each case is a row of one table, run like the
// scheduler conformance suite's shapes, and compared against the
// string-and-map oracle.
package validate_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gfd/internal/baseline"
	"gfd/internal/core"
	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// The test binary doubles as the distributed engine's worker executable.
func TestMain(m *testing.M) {
	dist.MaybeWorker()
	os.Exit(m.Run())
}

// withShapes adds, to a random workload's rules, the pivot shapes its
// random patterns may miss: two isomorphic components, single nodes or
// stars (the symmetric range pairs), a pattern of wildcards only (a wildcard pivot,
// whose class is every node), and a constant X (a seeded pivot).
func withShapes(set *core.Set) *core.Set {
	twins := pattern.New()
	twins.AddNode("x", "a")
	twins.AddNode("y", "a")
	stars := pattern.New() // symmetric with a star: some ranges keep no pivot
	stars.AddEdge(stars.AddNode("x", "a"), stars.AddNode("u", "b"), "e")
	stars.AddEdge(stars.AddNode("y", "a"), stars.AddNode("w", "b"), "e")
	wild := pattern.New()
	wild.AddEdge(wild.AddNode("x", pattern.Wildcard), wild.AddNode("y", pattern.Wildcard), "e")
	seeded := pattern.New()
	seeded.AddEdge(seeded.AddNode("x", "b"), seeded.AddNode("y", "c"), "f")
	return core.MustNewSet(append(set.Rules(),
		core.MustNew("mm_twins", twins, []core.Literal{core.VarEq("x", "p", "y", "p")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("mm_stars", stars, []core.Literal{core.VarEq("u", "p", "w", "p")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("mm_wild", wild, nil, []core.Literal{core.VarEq("x", "p", "y", "p")}),
		core.MustNew("mm_seeded", seeded, []core.Literal{core.Const("x", "p", "v1")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
	)...)
}

// render is a report as bytes: its violation keys in the report's own
// order, one a line. The engines return Key() order, so an engine's report
// renders as its oracle's keys do once ordered by sort.Strings (canonical),
// which shares no code with Report.Sort.
func render(r validate.Report) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// canonical is the oracle's report as the engines must render it.
func canonical(oracle validate.Report) string {
	var b strings.Builder
	for _, k := range oracle.Keys() {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return b.String()
}

// topologyKind builds a fresh bundle (so that nothing planned at another
// granularity is reused) over one kind of topology, holds the oracle's
// report it must reproduce, and cuts the manifest of n per-fragment shards
// of its snapshot for the multi-process engine (nil: not a frozen one).
type topologyKind struct {
	name   string
	expect string
	bundle func() *validate.Bundle
	shards func(n int) string
}

// openShards saves s under dir and opens it, and returns the mapping with
// a function cutting the manifest of its n per-fragment shards once per n.
func openShards(t *testing.T, s *graph.Snapshot, dir string) (*graph.Snapshot, func(n int) string) {
	ctx := context.Background()
	path := filepath.Join(dir, "g.gfds")
	if err := store.Save(ctx, s, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	snap := loaded.Snapshot()
	manifests := map[int]string{}
	return snap, func(n int) string {
		if manifests[n] == "" {
			m, err := dist.WriteShards(snap, n, fragment.Hash, dir, fmt.Sprintf("s%d", n))
			if err != nil {
				t.Fatal(err)
			}
			manifests[n] = m
		}
		return manifests[n]
	}
}

// lateLabels writes, through g's overlay, nodes and edges whose labels g
// never used before: first a fresh node label and a fresh edge label, then
// a node label and an edge label that were attribute values, whose codes
// are below the fresh ones'. Both kinds' ranks then differ from their
// codes' order, in the overlay's view and in every snapshot flattened or
// persisted from it. It returns the rules over those labels, beside a
// wildcard-edge rule whose ranges span the late edge labels' groups.
func lateLabels(g *graph.Graph) []*core.GFD {
	ov := graph.NewOverlay(g)
	z := ov.AddNode("z", graph.Attrs{"p": "v1", "q": "v0"})
	w := ov.AddNode("v1", graph.Attrs{"p": "v1", "q": "v2"})
	z2 := ov.AddNode("z", graph.Attrs{"p": "v2", "q": "v2"})
	for _, e := range []struct {
		from, to graph.NodeID
		label    string
	}{{z, w, "g"}, {z, w, "v2"}, {z2, w, "g"}, {w, 0, "v2"}, {0, z, "g"}, {1, w, "e"}, {z, 1, "f"}, {z2, 2, "v2"}, {w, z2, "e"}} {
		ov.MustAddEdge(e.from, e.to, e.label)
	}
	zw := pattern.New()
	zw.AddEdge(zw.AddNode("x", "z"), zw.AddNode("y", "v1"), "g")
	toLate := pattern.New()
	toLate.AddEdge(toLate.AddNode("x", pattern.Wildcard), toLate.AddNode("y", "v1"), pattern.Wildcard)
	fromLate := pattern.New()
	fromLate.AddEdge(fromLate.AddNode("x", "z"), fromLate.AddNode("y", pattern.Wildcard), "v2")
	return []*core.GFD{
		core.MustNew("late_zw", zw, []core.Literal{core.VarEq("x", "p", "y", "p")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("late_to", toLate, nil, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("late_from", fromLate, nil, []core.Literal{core.VarEq("x", "p", "y", "p")}),
	}
}

// metamorphicEngine runs one engine with n slots on a bundle in its collect
// mode and returns the report in the order the engine built it; shard names
// the manifest of n per-fragment shards for the multi-process engine. The
// parallel engines keep implied rules (NoReduce): reduction preserves the
// violating entities, not the rule names a byte comparison reads.
type metamorphicEngine struct {
	name string
	run  func(ctx context.Context, b *validate.Bundle, n int, shard func(n int) string) (validate.Report, error)
}

var metamorphicEngines = []metamorphicEngine{
	{"sequential", func(ctx context.Context, b *validate.Bundle, _ int, _ func(int) string) (validate.Report, error) {
		res, err := validate.Single(0, 1, nil, func(s validate.Sink) error { return validate.DetVioB(ctx, b, s) })
		return res.Violations, err
	}},
	{"repVal", func(ctx context.Context, b *validate.Bundle, n int, _ func(int) string) (validate.Report, error) {
		res, err := validate.RepValB(ctx, b, validate.Options{N: n, NoReduce: true}, nil)
		return res.Violations, err
	}},
	{"disVal", func(ctx context.Context, b *validate.Bundle, n int, _ func(int) string) (validate.Report, error) {
		res, err := validate.DisValB(ctx, b, fragment.PartitionSnapshot(b.Topo(), n, fragment.Hash), validate.Options{N: n, NoReduce: true}, nil)
		return res.Violations, err
	}},
	// The relational baseline, sorted as the session sorts it: its joins
	// and label selections read the bundle's view alone.
	{"bigDansing", func(ctx context.Context, b *validate.Bundle, n int, _ func(int) string) (validate.Report, error) {
		res, err := validate.Single(b.Set().Len(), n, nil, func(s validate.Sink) error {
			return baseline.DetectJoinsB(ctx, b, baseline.Encode(b.Topo()), n, s)
		})
		return res.Violations, err
	}},
	{"dist", func(ctx context.Context, b *validate.Bundle, n int, shard func(int) string) (validate.Report, error) {
		if shard == nil {
			return nil, nil // shards are cut from a frozen snapshot only
		}
		res, err := dist.DetectB(ctx, b, validate.Options{NoReduce: true, Dist: &validate.DistOptions{ManifestPath: shard(n)}}, nil)
		return res.Violations, err
	}},
}

func TestMetamorphicVio(t *testing.T) {
	ctx := context.Background()
	granularities := []struct {
		name             string
		perSlot, members int
	}{
		{"default", 0, 0},
		{"one chunk a group", 1, 1 << 30},
		{"one member a chunk", 64, 1},
		{"three members a chunk", 2, 3},
	}
	compared := map[string]int{}
	for seed := int64(0); seed < 8; seed++ {
		g, set := validate.RandomWorkload(seed)
		set = withShapes(set)
		want := canonical(validate.OracleVio(g, set))
		compared["violations"] += strings.Count(want, "\n")

		// The unmutated graph: heap snapshot, its persisted mapping, and
		// the mapping's per-fragment shards.
		snap, shard := openShards(t, g.Freeze(), t.TempDir())

		// The same graph after two update batches through a session: the
		// overlay's view, against the oracle of the mutated graph.
		mg, _ := validate.RandomWorkload(seed)
		sess, err := session.New(mg)
		if err != nil {
			t.Fatal(err)
		}
		id := sess.Apply(incremental.AddNode{Label: "a", Attrs: graph.Attrs{"p": "v1", "q": "v2"}})[0]
		sess.Apply(
			incremental.AddEdge{From: id, To: 0, Label: "e"},
			incremental.AddEdge{From: 1, To: id, Label: "f"},
			incremental.SetAttr{Node: 2, Attr: "p", Value: "v1"},
		)
		prep, err := sess.Prepare(set)
		if err != nil {
			t.Fatal(err)
		}
		ov := prep.Bundle().Topo()
		if !ov.Patched() {
			t.Fatalf("seed %d: the session runs on a frozen snapshot, want an overlay view", seed)
		}
		wantMutated := canonical(validate.OracleVio(mg, set))

		// The same graph with labels first used after its freeze: the
		// overlay's view, the snapshot a compaction flattens it into, that
		// snapshot persisted and mapped, and the mapping's shards.
		lg, _ := validate.RandomWorkload(seed)
		lg.Freeze()
		lset := core.MustNewSet(append(set.Rules(), lateLabels(lg)...)...)
		wantLate := canonical(validate.OracleVio(lg.Clone(), lset))
		lateView := graph.NewOverlay(lg).Snapshot
		lateFlat := lg.Freeze()
		lateSnap, lateShard := openShards(t, lateFlat, t.TempDir())
		for _, line := range strings.Split(wantLate, "\n") {
			if strings.HasPrefix(line, "late_") {
				compared["late-label violations"]++
			}
		}
		// The axis needs ranks out of code order: the first late node's
		// edges to the second sit "g" first, in the mapping too, though
		// "v2" has the smaller code.
		var order []string
		for _, e := range lateSnap.Out(graph.NodeID(g.NumNodes())) {
			order = append(order, lateSnap.Syms().Name(lateSnap.EdgeLabel(e.Label)))
		}
		if syms := lateSnap.Syms(); syms.Lookup("v2") > syms.Lookup("g") || slices.Index(order, "g") > slices.Index(order, "v2") {
			t.Fatalf("seed %d: the late edge labels keep code order (%v): the axis is vacuous", seed, order)
		}

		kinds := []topologyKind{
			{"heap", want, func() *validate.Bundle { return validate.NewBundle(g, set) }, nil},
			{"mmap", want, func() *validate.Bundle { return validate.NewBundleOver(snap, set, nil) }, shard},
			{"overlay", wantMutated, func() *validate.Bundle { return validate.NewBundleOver(ov, set, nil) }, nil},
			{"late-label overlay", wantLate, func() *validate.Bundle { return validate.NewBundleOver(lateView, lset, nil) }, nil},
			{"late-label compacted", wantLate, func() *validate.Bundle { return validate.NewBundleOver(lateFlat, lset, nil) }, nil},
			{"late-label mmap", wantLate, func() *validate.Bundle { return validate.NewBundleOver(lateSnap, lset, nil) }, lateShard},
		}
		for _, gr := range granularities {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, gr.name), func(t *testing.T) {
				if gr.perSlot > 0 {
					validate.SetGranularity(t, gr.perSlot, gr.members)
				}
				for _, k := range kinds {
					expect := k.expect
					for _, e := range metamorphicEngines {
						for n := 1; n <= 4; n++ {
							got, err := e.run(ctx, k.bundle(), n, k.shards)
							if err != nil {
								t.Fatalf("%s on %s, n=%d: %v", e.name, k.name, n, err)
							}
							if got == nil && e.name == "dist" {
								continue
							}
							if r := render(got); r != expect {
								t.Fatalf("%s on %s, n=%d: %d violations, the oracle %d:\n%s\nwant\n%s",
									e.name, k.name, n, len(got), strings.Count(expect, "\n"), r, expect)
							}
							compared[e.name+"/"+k.name]++
							if e.name == "sequential" {
								break // one slot whatever n says
							}
						}
					}
				}
			})
		}
	}
	t.Logf("comparisons: %v", compared)
	if compared["violations"] == 0 {
		t.Fatal("no workload has a violation; the harness compares empty sets")
	}
	if compared["late-label violations"] == 0 {
		t.Fatal("no late-label rule is violated; the axis compares empty sets")
	}
	for _, k := range []string{"dist/mmap", "disVal/overlay", "repVal/heap", "bigDansing/overlay", "dist/late-label mmap", "repVal/late-label overlay"} {
		if compared[k] == 0 {
			t.Fatalf("%s was never compared", k)
		}
	}
}
