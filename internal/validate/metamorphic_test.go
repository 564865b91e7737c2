// The metamorphic harness: Vio(Σ, G) is a set with one right answer, so
// every way of computing it must produce the same bytes — at every chunk
// granularity, for N = 1…4, from the sequential, replicated, fragmented
// and multi-process engines and the BigDansing baseline, over a heap
// snapshot, a session overlay after Apply, a store-adopted mapping and
// per-fragment shards. Each case is a row of one table, run like the
// scheduler conformance suite's shapes, and compared against the
// string-and-map oracle.
package validate_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
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
// granularity is reused) over one kind of topology, and names the graph
// state whose oracle it must reproduce.
type topologyKind struct {
	name    string
	mutated bool
	bundle  func() *validate.Bundle
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
		dir := t.TempDir()
		path := filepath.Join(dir, "g.gfds")
		if err := store.Save(ctx, g.Freeze(), path); err != nil {
			t.Fatal(err)
		}
		loaded, err := store.Open(ctx, path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { loaded.Close() })
		snap := loaded.Snapshot()
		manifests := map[int]string{}
		shard := func(n int) string {
			if manifests[n] == "" {
				m, err := dist.WriteShards(snap, n, fragment.Hash, dir, fmt.Sprintf("s%d", n))
				if err != nil {
					t.Fatal(err)
				}
				manifests[n] = m
			}
			return manifests[n]
		}

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

		kinds := []topologyKind{
			{"heap", false, func() *validate.Bundle { return validate.NewBundle(g, set) }},
			{"mmap", false, func() *validate.Bundle { return validate.NewBundleOver(snap, set, nil) }},
			{"overlay", true, func() *validate.Bundle { return validate.NewBundleOver(ov, set, nil) }},
		}
		for _, gr := range granularities {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, gr.name), func(t *testing.T) {
				if gr.perSlot > 0 {
					validate.SetGranularity(t, gr.perSlot, gr.members)
				}
				for _, k := range kinds {
					expect := want
					if k.mutated {
						expect = wantMutated
					}
					for _, e := range metamorphicEngines {
						var shards func(int) string
						if k.name == "mmap" {
							shards = shard
						}
						for n := 1; n <= 4; n++ {
							got, err := e.run(ctx, k.bundle(), n, shards)
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
	for _, k := range []string{"dist/mmap", "disVal/overlay", "repVal/heap", "bigDansing/overlay"} {
		if compared[k] == 0 {
			t.Fatalf("%s was never compared", k)
		}
	}
}
