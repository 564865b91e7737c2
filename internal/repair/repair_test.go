package repair

import (
	"context"
	"slices"
	"strings"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

func constantRule() *core.Set {
	q := pattern.New()
	q.AddNode("x", "R")
	return core.MustNewSet(core.MustNew("uk_city", q,
		[]core.Literal{core.Const("x", "area_code", "131")},
		[]core.Literal{core.Const("x", "city", "Edi")}))
}

func TestSuggestConstantLiteral(t *testing.T) {
	g := graph.New(0, 0)
	bad := g.AddNode("R", graph.Attrs{"area_code": "131", "city": "Gla"})
	g.AddNode("R", graph.Attrs{"area_code": "131", "city": "Edi"})
	set := constantRule()
	vio := detVio(g, set)
	if len(vio) != 1 {
		t.Fatalf("violations = %d", len(vio))
	}
	sugg := Suggest(g, set, vio)
	if len(sugg) != 1 {
		t.Fatalf("suggestions = %d", len(sugg))
	}
	s := sugg[0]
	if s.Node != bad || s.Attr != "city" || s.Proposed != "Edi" || s.Current != "Gla" {
		t.Errorf("suggestion = %+v", s)
	}
	if s.Confidence != 1.0 {
		t.Errorf("constant repairs have full confidence, got %v", s.Confidence)
	}
	if len(s.Rules) != 1 || s.Rules[0] != "uk_city" {
		t.Errorf("evidence = %v", s.Rules)
	}
	if !strings.Contains(s.String(), "Edi") {
		t.Error("String must describe the proposal")
	}
}

func TestSuggestVariableLiteralMajority(t *testing.T) {
	// A hub city whose three residents' country attribute must match the
	// city's: one corrupted hub value disagrees with three partners, so
	// the hub is blamed with their (unanimous) value proposed.
	q := pattern.New()
	p := q.AddNode("p", "person")
	c := q.AddNode("c", "city")
	q.AddEdge(p, c, "born_in")
	set := core.MustNewSet(core.MustNew("cc", q, nil,
		[]core.Literal{core.VarEq("p", "country", "c", "country")}))

	g := graph.New(0, 0)
	hub := g.AddNode("city", graph.Attrs{"country": "WRONG"})
	for i := 0; i < 3; i++ {
		pn := g.AddNode("person", graph.Attrs{"country": "FR"})
		g.MustAddEdge(pn, hub, "born_in")
	}
	vio := detVio(g, set)
	if len(vio) != 3 {
		t.Fatalf("violations = %d", len(vio))
	}
	sugg := Suggest(g, set, vio)
	if len(sugg) == 0 {
		t.Fatal("no suggestions")
	}
	top := sugg[0]
	if top.Node != hub || top.Proposed != "FR" {
		t.Errorf("top suggestion = %+v, want hub -> FR", top)
	}
	// The hub (3 partners) must outrank any single person (1 partner).
	for _, s := range sugg[1:] {
		if s.Confidence > top.Confidence {
			t.Errorf("suggestion %+v outranks the hub", s)
		}
	}
}

func TestSuggestTieLowConfidence(t *testing.T) {
	// A 1-vs-1 disagreement is symmetric: both sides get suggestions at
	// reduced confidence.
	q := pattern.New()
	a := q.AddNode("a", "n")
	b := q.AddNode("b", "n")
	q.AddEdge(a, b, "e")
	set := core.MustNewSet(core.MustNew("eq", q, nil,
		[]core.Literal{core.VarEq("a", "v", "b", "v")}))

	g := graph.New(0, 0)
	x := g.AddNode("n", graph.Attrs{"v": "1"})
	y := g.AddNode("n", graph.Attrs{"v": "2"})
	g.MustAddEdge(x, y, "e")

	sugg := Suggest(g, set, detVio(g, set))
	if len(sugg) != 2 {
		t.Fatalf("want both sides suggested, got %d", len(sugg))
	}
	for _, s := range sugg {
		if s.Confidence > 0.5 {
			t.Errorf("tie suggestion too confident: %+v", s)
		}
	}
}

func TestApplyRepairsGraph(t *testing.T) {
	g := graph.New(0, 0)
	g.AddNode("R", graph.Attrs{"area_code": "131", "city": "Gla"})
	set := constantRule()
	vio := detVio(g, set)
	sugg := Suggest(g, set, vio)
	if n := Apply(g, sugg, 0.9); n != 1 {
		t.Fatalf("applied %d repairs, want 1", n)
	}
	// After repair the graph satisfies Σ.
	if len(detVio(g, set)) != 0 {
		t.Error("applied repair did not clear the violation")
	}
	// Re-applying changes nothing.
	if n := Apply(g, Suggest(g, set, detVio(g, set)), 0.9); n != 0 {
		t.Errorf("idempotent re-apply changed %d cells", n)
	}
}

func TestApplyThresholdFilters(t *testing.T) {
	g := graph.New(0, 0)
	x := g.AddNode("n", graph.Attrs{"v": "1"})
	y := g.AddNode("n", graph.Attrs{"v": "2"})
	g.MustAddEdge(x, y, "e")
	q := pattern.New()
	a := q.AddNode("a", "n")
	b := q.AddNode("b", "n")
	q.AddEdge(a, b, "e")
	set := core.MustNewSet(core.MustNew("eq", q, nil,
		[]core.Literal{core.VarEq("a", "v", "b", "v")}))
	sugg := Suggest(g, set, detVio(g, set))
	if n := Apply(g, sugg, 0.9); n != 0 {
		t.Errorf("low-confidence ties must not auto-apply, applied %d", n)
	}
}

func TestSuggestMissingAttribute(t *testing.T) {
	// Missing Y-attribute: the constant rule proposes creating it.
	g := graph.New(0, 0)
	bad := g.AddNode("R", graph.Attrs{"area_code": "131"})
	set := constantRule()
	sugg := Suggest(g, set, detVio(g, set))
	if len(sugg) != 1 || sugg[0].Node != bad || sugg[0].Current != "" || sugg[0].Proposed != "Edi" {
		t.Errorf("suggestions = %+v", sugg)
	}
}

// residentRule is p.country = c.country over a person born in a city.
func residentRule() *core.Set {
	q := pattern.New()
	p := q.AddNode("p", "person")
	c := q.AddNode("c", "city")
	q.AddEdge(p, c, "born_in")
	return core.MustNewSet(core.MustNew("cc", q, nil,
		[]core.Literal{core.VarEq("p", "country", "c", "country")}))
}

func TestCulprits(t *testing.T) {
	resident := func(g *graph.Graph, person graph.Attrs, city graph.NodeID) graph.NodeID {
		p := g.AddNode("person", person)
		g.MustAddEdge(p, city, "born_in")
		return p
	}
	fr := graph.Attrs{"country": "FR"}
	cases := []struct {
		name  string
		build func(g *graph.Graph) (*core.Set, []graph.NodeID)
	}{
		{"failed constant literal blames its endpoint", func(g *graph.Graph) (*core.Set, []graph.NodeID) {
			bad := g.AddNode("R", graph.Attrs{"area_code": "131", "city": "Gla"})
			g.AddNode("R", graph.Attrs{"area_code": "131", "city": "Edi"})
			return constantRule(), []graph.NodeID{bad}
		}},
		{"missing x attribute blames its owner", func(g *graph.Graph) (*core.Set, []graph.NodeID) {
			city := g.AddNode("city", graph.Attrs{"country": "DE"})
			return residentRule(), []graph.NodeID{resident(g, nil, city)}
		}},
		{"missing y attribute blames its owner", func(g *graph.Graph) (*core.Set, []graph.NodeID) {
			city := g.AddNode("city", nil)
			resident(g, fr, city)
			return residentRule(), []graph.NodeID{city}
		}},
		{"1-vs-1 disagreement blames both", func(g *graph.Graph) (*core.Set, []graph.NodeID) {
			city := g.AddNode("city", graph.Attrs{"country": "DE"})
			return residentRule(), []graph.NodeID{city, resident(g, fr, city)}
		}},
		{"corrupted node against three partners is the only culprit", func(g *graph.Graph) (*core.Set, []graph.NodeID) {
			hub := g.AddNode("city", graph.Attrs{"country": "WRONG"})
			for i := 0; i < 3; i++ {
				resident(g, fr, hub)
			}
			return residentRule(), []graph.NodeID{hub}
		}},
	}
	for _, c := range cases {
		g := graph.New(0, 0)
		set, want := c.build(g)
		vio := detVio(g, set)
		if len(vio) == 0 {
			t.Fatalf("%s: the fixture has no violation", c.name)
		}
		if got := Culprits(g, set, vio); !slices.Equal(got, want) {
			t.Errorf("%s: culprits %v, want %v", c.name, got, want)
		}
		// A violation of a rule absent from set is skipped.
		ghost := append(slices.Clone(vio), validate.Violation{Rule: "ghost", Match: core.Match{0, 1}})
		if got := Culprits(g, set, ghost); !slices.Equal(got, want) {
			t.Errorf("%s: with a ghost rule's violation, culprits %v, want %v", c.name, got, want)
		}
		if got := Culprits(g, core.MustNewSet(), vio); len(got) != 0 {
			t.Errorf("%s: against an empty set, culprits %v", c.name, got)
		}
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
