package gen

import (
	"context"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/validate"
)

func TestSyntheticShape(t *testing.T) {
	g := Synthetic(SyntheticConfig{Nodes: 1000, Edges: 3000, Seed: 1})
	if g.NumNodes() != 1000 {
		t.Errorf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 3000 {
		t.Errorf("edges = %d", g.NumEdges())
	}
	// Defaults: 30 labels, 5 attrs + val, domain 1000.
	if labels := g.Labels(); len(labels) > 30 {
		t.Errorf("labels = %d", len(labels))
	}
	attrs := g.NodeAttrs(0)
	if len(attrs) != 6 {
		t.Errorf("attrs per node = %d, want 5 + val", len(attrs))
	}
	if _, ok := g.Attr(0, "val"); !ok {
		t.Error("every node needs the histogram attribute 'val'")
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := Synthetic(SyntheticConfig{Nodes: 200, Edges: 600, Seed: 7})
	b := Synthetic(SyntheticConfig{Nodes: 200, Edges: 600, Seed: 7})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must generate the same graph")
	}
	same := true
	a.Edges(func(e graph.Edge) bool {
		if !b.HasEdge(e.From, e.To, e.Label) {
			same = false
			return false
		}
		return true
	})
	if !same {
		t.Error("edge sets differ across runs with the same seed")
	}
	c := Synthetic(SyntheticConfig{Nodes: 200, Edges: 600, Seed: 8})
	diff := false
	a.Edges(func(e graph.Edge) bool {
		if !c.HasEdge(e.From, e.To, e.Label) {
			diff = true
			return false
		}
		return true
	})
	if !diff {
		t.Error("different seeds should differ")
	}
}

func TestSyntheticNoSelfLoops(t *testing.T) {
	g := Synthetic(SyntheticConfig{Nodes: 100, Edges: 500, Skew: 0.9, Seed: 5})
	g.Edges(func(e graph.Edge) bool {
		if e.From == e.To {
			t.Errorf("self-loop at %d", e.From)
		}
		return true
	})
}

func TestDatasetStandIns(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
	}{
		{"yago2", YAGO2Like(DatasetConfig{Scale: 200, Seed: 1})},
		{"dbpedia", DBpediaLike(DatasetConfig{Scale: 200, Seed: 2})},
		{"pokec", PokecLike(DatasetConfig{Scale: 200, Seed: 3})},
	}
	for _, tc := range cases {
		if tc.g.NumNodes() < 200 || tc.g.NumEdges() < 200 {
			t.Errorf("%s: too small (%v)", tc.name, tc.g)
		}
		if len(tc.g.Labels()) < 5 {
			t.Errorf("%s: only %d labels", tc.name, len(tc.g.Labels()))
		}
	}
}

func TestYAGO2MotifsPresent(t *testing.T) {
	g := YAGO2Like(DatasetConfig{Scale: 200, Seed: 1})
	for _, label := range []string{"flight", "id", "city", "country", "person", "party"} {
		if g.LabelCount(label) == 0 {
			t.Errorf("label %q missing", label)
		}
	}
	// Flight pairs must be consistent by construction: same id value =>
	// same from value.
	byID := make(map[string][]graph.NodeID)
	for _, f := range g.NodesWithLabel("flight") {
		for _, he := range g.Out(f) {
			if he.Label == "number" {
				v, _ := g.Attr(he.To, "val")
				byID[v] = append(byID[v], f)
			}
		}
	}
	fromVal := func(f graph.NodeID) string {
		for _, he := range g.Out(f) {
			if he.Label == "from" {
				v, _ := g.Attr(he.To, "val")
				return v
			}
		}
		return ""
	}
	for id, flights := range byID {
		if len(flights) != 2 {
			t.Fatalf("flight id %s has %d copies, want 2", id, len(flights))
		}
		if fromVal(flights[0]) != fromVal(flights[1]) {
			t.Fatalf("flight id %s: inconsistent origins before noise", id)
		}
	}
}

func TestPokecFakeAccounts(t *testing.T) {
	g := PokecLike(DatasetConfig{Scale: 400, Seed: 9})
	fakes := 0
	for _, a := range g.NodesWithLabel("account") {
		if v, _ := g.Attr(a, "is_fake"); v == "true" {
			fakes++
		}
	}
	if fakes == 0 {
		t.Error("some accounts must be fake")
	}
	if fakes > 40 {
		t.Errorf("too many fakes: %d of 400", fakes)
	}
}

func TestMineGFDs(t *testing.T) {
	g := YAGO2Like(DatasetConfig{Scale: 200, Seed: 1})
	set := MineGFDs(g, MineConfig{NumRules: 10, PatternSize: 5, TwoCompFrac: 0.3, Seed: 2})
	if set.Len() == 0 {
		t.Fatal("mining produced nothing")
	}
	for _, f := range set.Rules() {
		if err := f.Check(); err != nil {
			t.Errorf("mined rule invalid: %v", err)
		}
		if len(f.Y) == 0 {
			t.Errorf("%s: empty consequent", f.Name)
		}
		// Every mined pattern must have support in the graph.
		if len(match.NewMatcher(g.Freeze()).All(f.Q, match.Options{Limit: 1})) == 0 {
			t.Errorf("%s: pattern has no match in its source graph", f.Name)
		}
	}
}

func TestMineGFDsCleanGraphMostlyConsistent(t *testing.T) {
	// Rules mined from a clean graph should rarely flag it; tolerate a few
	// accidental violations (mining keys on a single witnessed match).
	g := YAGO2Like(DatasetConfig{Scale: 120, Seed: 5})
	set := MineGFDs(g, MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.5, Seed: 6})
	if set.Len() == 0 {
		t.Skip("no rules")
	}
	var nodes []graph.NodeID
	for _, v := range detVio(g, set) {
		nodes = append(nodes, v.Match...)
	}
	slices.Sort(nodes)
	if flagged := len(slices.Compact(nodes)); flagged > g.NumNodes()/10 {
		t.Errorf("clean graph heavily flagged: %d of %d nodes", flagged, g.NumNodes())
	}
}

func TestMineDeterminism(t *testing.T) {
	g := YAGO2Like(DatasetConfig{Scale: 120, Seed: 5})
	a := MineGFDs(g, MineConfig{NumRules: 5, Seed: 6})
	b := MineGFDs(g, MineConfig{NumRules: 5, Seed: 6})
	if a.Len() != b.Len() {
		t.Fatal("mining must be deterministic")
	}
	for i, f := range a.Rules() {
		if f.String() != b.Rules()[i].String() {
			t.Errorf("rule %d differs across runs", i)
		}
	}
}

func TestInjectNoise(t *testing.T) {
	g := YAGO2Like(DatasetConfig{Scale: 300, Seed: 1})
	before := g.NumNodes()
	errs := Inject(g, NoiseConfig{Rate: 0.05, Seed: 2})
	if g.NumNodes() != before {
		t.Error("noise must not add nodes")
	}
	if len(errs) == 0 {
		t.Fatal("no noise injected at 5%")
	}
	// Roughly rate * nodes, within generous bounds.
	expected := float64(before) * 0.05
	if float64(len(errs)) < expected/3 || float64(len(errs)) > expected*3 {
		t.Errorf("injected %d errors, expected about %.0f", len(errs), expected)
	}
	for _, e := range errs {
		switch e.Kind {
		case TypeNoise:
			if g.Label(e.Node) != e.New {
				t.Error("type noise not applied")
			}
		default:
			if v, _ := g.Attr(e.Node, e.Attr); v != e.New {
				t.Errorf("attribute noise not applied: %q != %q", v, e.New)
			}
			if e.New == e.Old {
				t.Error("noise must change the value")
			}
		}
	}
	truth := GroundTruth(errs)
	if len(truth) == 0 || len(truth) > len(errs) {
		t.Errorf("ground truth size %d vs %d errors", len(truth), len(errs))
	}
	for i := 1; i < len(truth); i++ {
		if truth[i-1] >= truth[i] {
			t.Fatalf("ground truth not ascending and distinct: %v", truth[i-1:i+1])
		}
	}
}

func TestNoiseKindString(t *testing.T) {
	if AttributeNoise.String() != "attribute" || TypeNoise.String() != "type" ||
		RepresentationalNoise.String() != "representational" {
		t.Error("NoiseKind names wrong")
	}
}

func TestPrecisionRecall(t *testing.T) {
	truth := []graph.NodeID{1, 2, 3, 4}
	detected := []graph.NodeID{2, 3, 9}
	p, r := PrecisionRecall(truth, detected)
	if p != 2.0/3.0 {
		t.Errorf("precision = %v", p)
	}
	if r != 0.5 {
		t.Errorf("recall = %v", r)
	}
	if p, r := PrecisionRecall(truth, []graph.NodeID{0, 5, 6}); p != 0 || r != 0 {
		t.Errorf("disjoint sets: p=%v r=%v", p, r)
	}
	// Degenerate cases.
	if p, r := PrecisionRecall(truth, nil); p != 1 || r != 0 {
		t.Errorf("empty detection: p=%v r=%v", p, r)
	}
	if p, r := PrecisionRecall(nil, nil); p != 1 || r != 1 {
		t.Errorf("both empty: p=%v r=%v", p, r)
	}
	if p, r := PrecisionRecall(nil, detected); p != 0 || r != 1 {
		t.Errorf("empty truth: p=%v r=%v", p, r)
	}
}

func TestNoiseMakesRulesFire(t *testing.T) {
	// End-to-end: mine on clean graph, inject noise, detect — recall of
	// *some* errors is expected (not all: rules cover a subset).
	g := YAGO2Like(DatasetConfig{Scale: 150, Seed: 42})
	set := MineGFDs(g, MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.5, Seed: 43})
	if set.Len() == 0 {
		t.Skip("no rules")
	}
	base := detVio(g, set)
	Inject(g, NoiseConfig{Rate: 0.08, Seed: 44, Kinds: []NoiseKind{AttributeNoise}})
	noisy := detVio(g, set)
	if len(noisy) <= len(base) {
		t.Errorf("noise should create violations: %d before, %d after", len(base), len(noisy))
	}
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
