package incremental

import (
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// capitalRule is ϕ2: one capital per country.
func capitalRule() *core.GFD {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	return core.MustNew("capital", q, nil, []core.Literal{core.VarEq("y", "val", "z", "val")})
}

// agree reports whether the incremental report matches a fresh full
// validation.
func agree(t *testing.T, d *Detector, g *graph.Graph, set *core.Set) {
	t.Helper()
	want := detVio(g, set)
	got := d.Report()
	if len(got) != len(want) || d.Len() != len(want) {
		t.Fatalf("incremental has %d violations (Len %d), full validation %d", len(got), d.Len(), len(want))
	}
	for i := range got {
		if got[i].Key() != want[i].Key() {
			t.Fatalf("violation %d differs: %s vs %s", i, got[i].Key(), want[i].Key())
		}
	}
}

func TestIncrementalCapitalScenario(t *testing.T) {
	g := graph.New(0, 0)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	c1 := g.AddNode("city", graph.Attrs{"val": "Canberra"})
	g.MustAddEdge(au, c1, "capital")

	set := core.MustNewSet(capitalRule())
	d := New(g, set)
	if d.Len() != 0 {
		t.Fatal("single capital: no violations initially")
	}

	// Adding a second, different capital creates the inconsistency.
	ids := d.Apply(AddNode{Label: "city", Attrs: graph.Attrs{"val": "Melbourne"}})
	d.Apply(AddEdge{From: au, To: ids[0], Label: "capital"})
	agree(t, d, g, set)
	if d.Len() != 2 {
		t.Fatalf("want the two ordered violations, got %d", d.Len())
	}

	// Repairing the attribute clears the violations.
	d.Apply(SetAttr{Node: ids[0], Attr: "val", Value: "Canberra"})
	agree(t, d, g, set)
	if d.Len() != 0 {
		t.Fatalf("repair should clear violations, got %d", d.Len())
	}

	// Breaking it again from the other side.
	d.Apply(SetAttr{Node: c1, Attr: "val", Value: "Sydney"})
	agree(t, d, g, set)
	if d.Len() != 2 {
		t.Fatalf("want violations after re-breaking, got %d", d.Len())
	}
}

func TestIncrementalTwoComponentRule(t *testing.T) {
	// Flight FD over two disconnected components: updates far from one
	// component still affect pairs that include it.
	q := pattern.New()
	for _, pre := range []string{"x", "y"} {
		f := q.AddNode(pattern.Var(pre), "flight")
		id := q.AddNode(pattern.Var(pre+"1"), "id")
		c := q.AddNode(pattern.Var(pre+"2"), "city")
		q.AddEdge(f, id, "number")
		q.AddEdge(f, c, "from")
	}
	rule := core.MustNew("flightfd", q,
		[]core.Literal{core.VarEq("x1", "val", "y1", "val")},
		[]core.Literal{core.VarEq("x2", "val", "y2", "val")})
	set := core.MustNewSet(rule)

	g := graph.New(0, 0)
	addFlight := func(id, from string) graph.NodeID {
		f := g.AddNode("flight", graph.Attrs{"val": id + from})
		g.MustAddEdge(f, g.AddNode("id", graph.Attrs{"val": id}), "number")
		g.MustAddEdge(f, g.AddNode("city", graph.Attrs{"val": from}), "from")
		return f
	}
	addFlight("DL1", "Paris")
	d := New(g, set)
	if d.Len() != 0 {
		t.Fatal("one flight cannot violate a pair rule")
	}

	// Insert a conflicting duplicate via updates only.
	ids := d.Apply(
		AddNode{Label: "flight", Attrs: graph.Attrs{"val": "DL1b"}},
		AddNode{Label: "id", Attrs: graph.Attrs{"val": "DL1"}},
		AddNode{Label: "city", Attrs: graph.Attrs{"val": "Rome"}},
	)
	d.Apply(
		AddEdge{From: ids[0], To: ids[1], Label: "number"},
		AddEdge{From: ids[0], To: ids[2], Label: "from"},
	)
	agree(t, d, g, set)
	if d.Len() != 2 {
		t.Fatalf("want both ordered pair violations, got %d", d.Len())
	}
}

func TestIncrementalRandomizedAgainstFull(t *testing.T) {
	// Fuzz: random updates against a mined rule set; the incremental
	// report must always equal a fresh full validation.
	clean := gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 9})
	set := gen.MineGFDs(clean, gen.MineConfig{NumRules: 4, PatternSize: 3, TwoCompFrac: 0.3, Seed: 10})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	d := New(clean, set)
	rng := rand.New(rand.NewSource(11))
	labels := clean.Labels()
	for step := 0; step < 25; step++ {
		switch rng.Intn(3) {
		case 0:
			d.Apply(AddNode{Label: labels[rng.Intn(len(labels))], Attrs: graph.Attrs{"val": "new"}})
		case 1:
			from := graph.NodeID(rng.Intn(clean.NumNodes()))
			to := graph.NodeID(rng.Intn(clean.NumNodes()))
			if from != to {
				d.Apply(AddEdge{From: from, To: to, Label: "related_to"})
			}
		default:
			v := graph.NodeID(rng.Intn(clean.NumNodes()))
			d.Apply(SetAttr{Node: v, Attr: "val", Value: corruptValue(rng)})
		}
		agree(t, d, clean, set)
	}
	for _, c := range DeltaCases {
		t.Run(c.Name, func(t *testing.T) {
			g, set, batches := c.Build()
			d := New(g, set)
			agree(t, d, g, set)
			for _, b := range batches {
				d.Apply(b...)
				agree(t, d, g, set)
			}
		})
	}
}

func corruptValue(rng *rand.Rand) string {
	return string(rune('a' + rng.Intn(26)))
}

func TestIncrementalEnumeratesFewMatches(t *testing.T) {
	// The point of incrementality: a single attribute touch must enumerate
	// only the matches through the touched node, not the whole workload.
	// The mined rules' constant X literals leave the guarded sweep a
	// handful of matches, so X is dropped: the sweep then enumerates every
	// match of every pattern, the work a non-incremental detector repeats.
	clean := gen.YAGO2Like(gen.DatasetConfig{Scale: 150, Seed: 12})
	mined := gen.MineGFDs(clean, gen.MineConfig{NumRules: 4, PatternSize: 3, Seed: 13})
	if mined.Len() == 0 {
		t.Skip("no rules mined")
	}
	var rules []*core.GFD
	for _, r := range mined.Rules() {
		rules = append(rules, core.MustNew(r.Name, r.Q, nil, r.Y))
	}
	d := New(clean, core.MustNewSet(rules...))
	initial := d.Enumerated()
	d.Apply(SetAttr{Node: 0, Attr: "val", Value: "zap"})
	delta := d.Enumerated() - initial
	if delta > initial/4 {
		t.Errorf("one update enumerated %d matches, the initial sweep %d — not incremental", delta, initial)
	}
}

// TestNewDetectorsShareLiveOverlay: two detectors built by New over one
// graph share the graph's live overlay, and each one's Apply is the
// other's missed mutation, folded in by its next Apply.
func TestNewDetectorsShareLiveOverlay(t *testing.T) {
	g := graph.New(0, 0)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	c1 := g.AddNode("city", graph.Attrs{"val": "Canberra"})
	c2 := g.AddNode("city", graph.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, c1, "capital")
	g.MustAddEdge(au, c2, "capital")
	set := core.MustNewSet(capitalRule())

	d1 := New(g, set)
	if !d1.Synced() {
		t.Fatal("fresh detector must be synced")
	}
	agree(t, d1, g, set)

	// Mutate through the detector: the graph version advances and the
	// overlay follows, so the detector stays synced and a second detector
	// is built over the same live overlay without a freeze.
	d1.Apply(SetAttr{Node: c2, Attr: "val", Value: "Canberra"})
	if !d1.Synced() {
		t.Fatal("detector must remain synced after Apply")
	}
	builds := g.SnapshotBuilds()
	d2 := New(g, set)
	if d2.Overlay() != d1.Overlay() || d2.Overlay() != g.LiveOverlay() {
		t.Fatal("New must adopt the graph's live overlay")
	}
	if g.SnapshotBuilds() != builds {
		t.Fatalf("adopting the live overlay must not freeze (builds %d -> %d)", builds, g.SnapshotBuilds())
	}
	agree(t, d2, g, set)
	// Updates through the new detector keep the shared overlay usable by
	// the first one's compiled programs (codes only grow).
	d2.Apply(SetAttr{Node: c2, Attr: "val", Value: "Sydney"})
	agree(t, d2, g, set)
	if d1.Synced() {
		t.Error("d1 did not observe d2's mutation; Synced must be false")
	}
	d1.Apply()
	if !d1.Synced() || d1.Overlay() != d2.Overlay() {
		t.Fatal("an Apply must resync the detector on the shared overlay")
	}
	agree(t, d1, g, set)

	// A direct graph mutation desynchronizes every detector.
	g.SetAttr(c1, "val", "Perth")
	if d2.Synced() {
		t.Error("direct mutation must desynchronize the detector")
	}
}
