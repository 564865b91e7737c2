package incremental

import (
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// DeltaCase is one rule shape or update pattern the delta rule must
// handle: Build returns a base graph, a rule set and update batches to
// apply in order. Node IDs in the batches are the ones AddNode assigns,
// the next free ID at the time of insertion. The randomized and the
// differential suites check every batch against full detection.
type DeltaCase struct {
	Name  string
	Build func() (*graph.Graph, *core.Set, [][]Update)
}

// rule builds a GFD over a pattern given as node labels, in variable order
// v0, v1, …, and edges {from, to, label} between node indices.
func rule(name string, labels []string, edges []pattern.Edge, x, y []core.Literal) *core.GFD {
	q := pattern.New()
	for i, l := range labels {
		q.AddNode(pattern.Var("v"+string(rune('0'+i))), l)
	}
	for _, e := range edges {
		q.AddEdge(e.From, e.To, e.Label)
	}
	return core.MustNew(name, q, x, y)
}

// named renames f. core.New refuses a ',' in a rule name (GFD.Check), but
// a GFD built by hand still reaches the detector, which must keep apart the
// violations whose printed keys such a name lets collide.
func named(name string, f *core.GFD) *core.GFD {
	f.Name = name
	return f
}

// nodes builds a graph with one node per label, each carrying attrs[i].
func nodes(labels []string, attrs ...graph.Attrs) *graph.Graph {
	g := graph.New(len(labels), 0)
	for i, l := range labels {
		var a graph.Attrs
		if i < len(attrs) {
			a = attrs[i]
		}
		g.AddNode(l, a)
	}
	return g
}

func val(v string) graph.Attrs { return graph.Attrs{"val": v} }

// capitalSet is ϕ2, one capital per country, over one country node 0 whose
// capital is node 1.
func capitalSet() (*graph.Graph, *core.Set) {
	g := nodes([]string{"country", "city"}, val("AU"), val("Canberra"))
	g.MustAddEdge(0, 1, "capital")
	return g, core.MustNewSet(capitalRule())
}

// DeltaCases lists the shapes the delta rule is easiest to get wrong on.
var DeltaCases = []DeltaCase{
	{"wildcard", func() (*graph.Graph, *core.Set, [][]Update) {
		// A wildcard source node over a wildcard edge label: any node with
		// any edge into a city.
		g := nodes([]string{"country", "city", "person"}, val("A"), val("A"), val("B"))
		g.MustAddEdge(0, 1, "capital")
		r := rule("wild", []string{pattern.Wildcard, "city"}, []pattern.Edge{{From: 0, To: 1, Label: pattern.Wildcard}},
			nil, []core.Literal{core.VarEq("v0", "val", "v1", "val")})
		return g, core.MustNewSet(r), [][]Update{
			{AddEdge{From: 2, To: 1, Label: "lives_in"}},
			{SetAttr{Node: 2, Attr: "val", Value: "A"}},
			{AddNode{Label: "robot", Attrs: val("C")}, AddEdge{From: 3, To: 1, Label: "built_in"}},
			{AddEdge{From: 1, To: 0, Label: "in"}, SetAttr{Node: 1, Attr: "val", Value: "C"}},
		}
	}},
	{"self-loop", func() (*graph.Graph, *core.Set, [][]Update) {
		// A pattern self-loop, beside a non-loop pattern edge of the same
		// label that a graph self-loop must not be pinned onto.
		g := nodes([]string{"a", "a", "b"},
			graph.Attrs{"p": "on", "q": "bad"}, graph.Attrs{"p": "on", "q": "ok"}, graph.Attrs{"p": "on", "q": "bad"})
		loop := rule("loop", []string{"a"}, []pattern.Edge{{From: 0, To: 0, Label: "loop"}},
			[]core.Literal{core.Const("v0", "p", "on")}, []core.Literal{core.Const("v0", "q", "ok")})
		pair := rule("pair", []string{"a", "a"}, []pattern.Edge{{From: 0, To: 1, Label: "loop"}},
			nil, []core.Literal{core.VarEq("v0", "q", "v1", "q")})
		return g, core.MustNewSet(loop, pair), [][]Update{
			{AddEdge{From: 0, To: 0, Label: "loop"}},
			{AddEdge{From: 1, To: 1, Label: "loop"}, AddEdge{From: 0, To: 1, Label: "loop"}},
			{SetAttr{Node: 1, Attr: "q", Value: "bad"}},
			{AddEdge{From: 2, To: 2, Label: "loop"}, AddEdge{From: 1, To: 1, Label: "other"}},
		}
	}},
	{"lone-component", func() (*graph.Graph, *core.Set, [][]Update) {
		// The second component is a single node, so inserting a node alone
		// creates matches.
		g, _ := capitalSet()
		r := rule("lone", []string{"country", "city", "city"}, []pattern.Edge{{From: 0, To: 1, Label: "capital"}},
			nil, []core.Literal{core.VarEq("v1", "val", "v2", "val")})
		return g, core.MustNewSet(r), [][]Update{
			{AddNode{Label: "city", Attrs: val("Sydney")}},
			{AddNode{Label: "city", Attrs: val("Canberra")}},
			{SetAttr{Node: 2, Attr: "val", Value: "Canberra"}},
		}
	}},
	{"parallel-edge", func() (*graph.Graph, *core.Set, [][]Update) {
		// A new label between already linked nodes.
		g := nodes([]string{"person", "person"}, val("A"), val("B"))
		g.MustAddEdge(0, 1, "knows")
		r := rule("likes", []string{"person", "person"}, []pattern.Edge{{From: 0, To: 1, Label: "likes"}},
			nil, []core.Literal{core.VarEq("v0", "val", "v1", "val")})
		return g, core.MustNewSet(r), [][]Update{
			{AddEdge{From: 0, To: 1, Label: "likes"}},
			{AddEdge{From: 1, To: 0, Label: "knows"}},
			{AddEdge{From: 1, To: 0, Label: "likes"}},
		}
	}},
	{"insert-set-wire", func() (*graph.Graph, *core.Set, [][]Update) {
		// One batch inserts a node, sets its attribute and then wires it.
		g, set := capitalSet()
		return g, set, [][]Update{
			{AddNode{Label: "city"}, SetAttr{Node: 2, Attr: "val", Value: "Melbourne"}, AddEdge{From: 0, To: 2, Label: "capital"}},
			{AddNode{Label: "city"}, AddEdge{From: 0, To: 3, Label: "capital"}, SetAttr{Node: 3, Attr: "val", Value: "Canberra"}},
		}
	}},
	{"repair", func() (*graph.Graph, *core.Set, [][]Update) {
		// Assignments that retract violations, then re-create them.
		g, set := capitalSet()
		g.MustAddEdge(0, g.AddNode("city", val("Melbourne")), "capital")
		return g, set, [][]Update{
			{SetAttr{Node: 2, Attr: "val", Value: "Canberra"}},
			{SetAttr{Node: 1, Attr: "val", Value: "Sydney"}, SetAttr{Node: 2, Attr: "val", Value: "Sydney"}},
			{SetAttr{Node: 1, Attr: "val", Value: "Perth"}},
			{SetAttr{Node: 1, Attr: "val", Value: "Sydney"}, SetAttr{Node: 0, Attr: "val", Value: "NZ"}},
		}
	}},
	{"comma-names", func() (*graph.Graph, *core.Set, [][]Update) {
		// Rules "r,1" and "r" whose printed keys collide: the "r,1"
		// violation [5] and the "r" violation [1 5] both print "r,1,5".
		g := nodes([]string{"a", "b", "a", "a", "a", "a"},
			graph.Attrs{"p": "0"}, graph.Attrs{"p": "1"}, graph.Attrs{"p": "0"},
			graph.Attrs{"p": "0"}, graph.Attrs{"p": "0"}, graph.Attrs{"p": "0"})
		one := named("r,1", rule("r1", []string{"a"}, nil, nil, []core.Literal{core.Const("v0", "p", "0")}))
		r := rule("r", []string{"b", "a"}, []pattern.Edge{{From: 0, To: 1, Label: "e"}},
			nil, []core.Literal{core.VarEq("v0", "p", "v1", "p")})
		return g, core.MustNewSet(one, r), [][]Update{
			{SetAttr{Node: 5, Attr: "p", Value: "1"}},
			{AddEdge{From: 1, To: 5, Label: "e"}, SetAttr{Node: 5, Attr: "p", Value: "2"}},
		}
	}},
}
