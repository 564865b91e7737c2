package gfd_test

import (
	"context"
	"fmt"
	"strings"

	"gfd"
)

// ExampleSession demonstrates the prepared-session lifecycle: build a
// graph, prepare a rule set once, then detect and stream with any engine
// — freeze and rule lowering are paid once across every call.
func ExampleSession() {
	q := gfd.NewPattern()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	phi := gfd.MustGFD("one_capital", q, nil,
		[]gfd.Literal{gfd.VarEq("y", "val", "z", "val")})

	g := gfd.NewGraph(0, 0)
	au := g.AddNode("country", gfd.Attrs{"val": "Australia"})
	c1 := g.AddNode("city", gfd.Attrs{"val": "Canberra"})
	c2 := g.AddNode("city", gfd.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, c1, "capital")
	g.MustAddEdge(au, c2, "capital")

	ctx := context.Background()
	sess, _ := gfd.NewSession(g)
	prep, _ := sess.Prepare(gfd.MustSet(phi))

	seq, _ := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineSequential})
	par, _ := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineReplicated, N: 4})
	fmt.Println("sequential:", len(seq.Violations), "parallel:", len(par.Violations))

	// Violations yields violations as found; breaking stops detection.
	streamed := 0
	for range prep.Violations(ctx, gfd.Options{}) {
		streamed++
		break
	}
	fmt.Println("streamed before stop:", streamed)

	// Mutation invalidates the prepared state; the next Detect re-freezes.
	g.SetAttr(c2, "val", "Canberra")
	after, _ := prep.Detect(ctx, gfd.Options{})
	fmt.Println("after repair:", len(after.Violations))
	// Output:
	// sequential: 2 parallel: 2
	// streamed before stop: 1
	// after repair: 0
}

// ExampleNewSession demonstrates the one-capital rule catching the
// Canberra/Melbourne inconsistency from the paper's introduction.
func ExampleNewSession() {
	q := gfd.NewPattern()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	phi := gfd.MustGFD("one_capital", q, nil,
		[]gfd.Literal{gfd.VarEq("y", "val", "z", "val")})

	g := gfd.NewGraph(0, 0)
	au := g.AddNode("country", gfd.Attrs{"val": "Australia"})
	c1 := g.AddNode("city", gfd.Attrs{"val": "Canberra"})
	c2 := g.AddNode("city", gfd.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, c1, "capital")
	g.MustAddEdge(au, c2, "capital")

	sess, _ := gfd.NewSession(g)
	prep, _ := sess.Prepare(gfd.MustSet(phi))
	res, _ := prep.Detect(context.Background(), gfd.Options{Engine: gfd.EngineSequential})
	fmt.Println(len(res.Violations), "violations of", res.Violations[0].Rule)
	// Output: 2 violations of one_capital
}

// ExampleSatisfiable shows static conflict detection: two rules forcing
// different constants on the same attribute cannot have a model
// (Example 7 of the paper).
func ExampleSatisfiable() {
	mk := func(name, c string) *gfd.GFD {
		q := gfd.NewPattern()
		q.AddNode("x", "tau")
		return gfd.MustGFD(name, q, nil, []gfd.Literal{gfd.Const("x", "A", c)})
	}
	ok, _ := gfd.Satisfiable(gfd.MustSet(mk("r1", "c"), mk("r2", "d")))
	fmt.Println("satisfiable:", ok)
	// Output: satisfiable: false
}

// ExampleImplies shows implication-based redundancy checks (Example 8's
// shape): a rule with a strengthened antecedent is implied.
func ExampleImplies() {
	q1 := gfd.NewPattern()
	q1.AddNode("x", "R")
	base := gfd.MustGFD("base", q1,
		[]gfd.Literal{gfd.Const("x", "country", "44")},
		[]gfd.Literal{gfd.Const("x", "currency", "GBP")})

	q2 := gfd.NewPattern()
	q2.AddNode("x", "R")
	weaker := gfd.MustGFD("weaker", q2,
		[]gfd.Literal{gfd.Const("x", "country", "44"), gfd.Const("x", "city", "Edi")},
		[]gfd.Literal{gfd.Const("x", "currency", "GBP")})

	fmt.Println(gfd.Implies(gfd.MustSet(base), weaker))
	// Output: true
}

// ExampleParseRules parses the rule DSL and validates a graph with it.
func ExampleParseRules() {
	rules := `
gfd penguin {
  node x _
  node y _
  edge y is_a x
  then x.can_fly = y.can_fly
}`
	set, _ := gfd.ParseRules(strings.NewReader(rules))

	g := gfd.NewGraph(0, 0)
	bird := g.AddNode("bird", gfd.Attrs{"can_fly": "true"})
	penguin := g.AddNode("penguin", gfd.Attrs{"can_fly": "false"})
	g.MustAddEdge(penguin, bird, "is_a")

	// G |= Σ exactly when no violation exists; stopping at the first one
	// is the early exit.
	sess, _ := gfd.NewSession(g)
	prep, _ := sess.Prepare(set)
	satisfies := true
	for range prep.Violations(context.Background(), gfd.Options{Engine: gfd.EngineSequential}) {
		satisfies = false
		break
	}
	fmt.Println("satisfies:", satisfies)
	// Output: satisfies: false
}

// ExampleNewIncremental maintains the violation set across updates.
func ExampleNewIncremental() {
	q := gfd.NewPattern()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	phi := gfd.MustGFD("one_capital", q, nil,
		[]gfd.Literal{gfd.VarEq("y", "val", "z", "val")})

	g := gfd.NewGraph(0, 0)
	au := g.AddNode("country", gfd.Attrs{"val": "AU"})
	c1 := g.AddNode("city", gfd.Attrs{"val": "Canberra"})
	g.MustAddEdge(au, c1, "capital")

	d := gfd.NewIncremental(g, gfd.MustSet(phi))
	fmt.Println("initial violations:", d.Len())

	ids := d.Apply(gfd.UpdateAddNode{Label: "city", Attrs: gfd.Attrs{"val": "Melbourne"}})
	d.Apply(gfd.UpdateAddEdge{From: au, To: ids[0], Label: "capital"})
	fmt.Println("after bad update:", d.Len())

	d.Apply(gfd.UpdateSetAttr{Node: ids[0], Attr: "val", Value: "Canberra"})
	fmt.Println("after repair:", d.Len())
	// Output:
	// initial violations: 0
	// after bad update: 2
	// after repair: 0
}
