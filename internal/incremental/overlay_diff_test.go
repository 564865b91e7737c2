// Differential sweeps for the overlay-backed incremental detector: after
// every random update batch the maintained report must equal a full batch
// detection on an identical graph — across engines and seeds — and the
// sweep itself must never rebuild a snapshot (the probe the delta-overlay
// design is accountable to).
package incremental_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// capitalRule is ϕ2: one capital per country (mirrors the in-package
// test fixture; this file lives in the external test package so it can
// import the session layer).
func capitalRule() *core.GFD {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	return core.MustNew("capital", q, nil, []core.Literal{core.VarEq("y", "val", "z", "val")})
}

// randomBatch draws a batch of updates against the current graph state:
// node insertions reusing known labels, edge insertions between random
// existing nodes, and attribute corruptions.
func randomBatch(rng *rand.Rand, n int, labels []string, size int) []incremental.Update {
	ups := make([]incremental.Update, 0, size)
	for i := 0; i < size; i++ {
		switch rng.Intn(3) {
		case 0:
			ups = append(ups, incremental.AddNode{
				Label: labels[rng.Intn(len(labels))],
				Attrs: graph.Attrs{"val": fmt.Sprintf("n%d", rng.Intn(50))},
			})
		case 1:
			from := graph.NodeID(rng.Intn(n))
			to := graph.NodeID(rng.Intn(n))
			if from == to {
				continue
			}
			ups = append(ups, incremental.AddEdge{From: from, To: to, Label: "related_to"})
		default:
			ups = append(ups, incremental.SetAttr{
				Node:  graph.NodeID(rng.Intn(n)),
				Attr:  "val",
				Value: string(rune('a' + rng.Intn(26))),
			})
		}
	}
	return ups
}

// sameAsEngines checks the maintained report against a full re-freeze +
// batch Detect, on every engine, of a clone of the updated graph (cloned so
// the caller's probe can prove the incremental path itself froze nothing).
func sameAsEngines(t *testing.T, d *incremental.Detector, g *graph.Graph, set *core.Set, batch int) {
	t.Helper()
	got := d.Report()
	if d.Len() != len(got) {
		t.Fatalf("batch %d: Len %d, Report has %d violations", batch, d.Len(), len(got))
	}
	sess, err := session.New(g.Clone())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []validate.Engine{
		validate.EngineSequential,
		validate.EngineReplicated,
		validate.EngineFragmented,
	} {
		res, err := prep.Detect(context.Background(), validate.Options{Engine: engine, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != len(got) {
			t.Fatalf("batch %d %v: incremental has %d violations, full detection %d",
				batch, engine, len(got), len(res.Violations))
		}
		for i, v := range res.Violations {
			if v.Key() != got[i].Key() {
				t.Fatalf("batch %d %v: violation %d differs: %s vs %s",
					batch, engine, i, got[i].Key(), v.Key())
			}
		}
	}
}

func TestOverlayIncrementalDifferentialSweep(t *testing.T) {
	for _, seed := range []int64{3, 17, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			g := gen.YAGO2Like(gen.DatasetConfig{Scale: 50, Seed: seed})
			set := gen.MineGFDs(g, gen.MineConfig{NumRules: 4, PatternSize: 3, TwoCompFrac: 0.3, Seed: seed + 1})
			if set.Len() == 0 {
				t.Skip("no rules mined")
			}
			d := incremental.New(g, set)
			builds := g.SnapshotBuilds()
			labels := g.Labels()
			rng := rand.New(rand.NewSource(seed))
			for batch := 0; batch < 6; batch++ {
				d.Apply(randomBatch(rng, g.NumNodes(), labels, 1+rng.Intn(4))...)
				sameAsEngines(t, d, g, set, batch)
			}
			if g.SnapshotBuilds() != builds {
				t.Fatalf("update sweep rebuilt snapshots: %d -> %d (the overlay must absorb batches)",
					builds, g.SnapshotBuilds())
			}
		})
	}
	// The hand-built shapes sit on graphs small enough that most batches
	// also cross the compaction threshold.
	for _, c := range incremental.DeltaCases {
		t.Run("case="+c.Name, func(t *testing.T) {
			g, set, batches := c.Build()
			d := incremental.New(g, set)
			sameAsEngines(t, d, g, set, -1)
			for batch, ups := range batches {
				d.Apply(ups...)
				sameAsEngines(t, d, g, set, batch)
			}
		})
	}
}

// TestDetectorCompaction pushes the delta past the compaction threshold
// and checks the detector re-freezes exactly once, lowers no rule again (a
// compaction keeps the symbol table, so the bundles share one rule side),
// keeps answering correctly, and continues incrementally afterwards.
func TestDetectorCompaction(t *testing.T) {
	g := graph.New(0, 0)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": "Canberra"}), "capital")
	set := core.MustNewSet(capitalRule())
	d := incremental.New(g, set)
	builds := g.SnapshotBuilds()
	progs := slices.Clone(d.Programs())

	// Each batch adds a disconnected node; on a tiny base the delta
	// fraction crosses 0.25 almost immediately, forcing compactions.
	for i := 0; i < 12; i++ {
		d.Apply(incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": "X"}})
	}
	if g.SnapshotBuilds() == builds {
		t.Fatal("delta far past the threshold never compacted")
	}
	if !slices.Equal(d.Programs(), progs) {
		t.Fatal("a compaction keeps the table: the detector must keep its programs")
	}
	// Post-compaction the detector still answers and maintains.
	ids := d.Apply(incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": "Melbourne"}})
	d.Apply(incremental.AddEdge{From: au, To: ids[0], Label: "capital"})
	want := detVio(g.Clone(), set)
	got := d.Report()
	if len(got) != len(want) {
		t.Fatalf("post-compaction report has %d violations, full validation %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("post-compaction violation %d differs: %s vs %s", i, got[i].Key(), want[i].Key())
		}
	}
}

// detVio is a full batch detection through a one-shot session.
func detVio(g *graph.Graph, set *core.Set) validate.Report {
	sess, err := session.New(g)
	if err != nil {
		panic(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		panic(err)
	}
	res, err := prep.Detect(context.Background(), validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		panic(err)
	}
	return res.Violations
}
