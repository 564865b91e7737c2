// Knowledge-graph cleaning: the three real-life GFDs of the paper's Fig. 7
// run against a YAGO2-like knowledge graph with injected noise, using both
// the replicated (repVal) and fragmented (disVal) parallel engines.
//
// This is deliverable (b)'s domain scenario for the paper's headline use
// case — detecting inconsistencies in knowledge bases.
package main

import (
	"context"
	"fmt"

	"gfd"
)

// childParentCycle is Fig. 7 GFD 1: nobody is both child and parent of the
// same person. The consequent is unsatisfiable by construction, so every
// match of the cyclic pattern is an error.
func childParentCycle() *gfd.GFD {
	q := gfd.NewPattern()
	x := q.AddNode("x", "person")
	y := q.AddNode("y", "person")
	q.AddEdge(x, y, "has_child")
	q.AddEdge(x, y, "has_parent")
	return gfd.MustGFD("child_parent_cycle", q, nil,
		[]gfd.Literal{gfd.Const("x", "__absurd", "1")})
}

// disjointTypes is Fig. 7 GFD 2: an entity cannot carry two disjoint
// classes.
func disjointTypes() *gfd.GFD {
	q := gfd.NewPattern()
	x := q.AddNode("x", gfd.Wildcard)
	y := q.AddNode("y", "class")
	yp := q.AddNode("yp", "class")
	q.AddEdge(x, y, "type")
	q.AddEdge(x, yp, "type")
	q.AddEdge(y, yp, "disjoint_with")
	return gfd.MustGFD("disjoint_types", q, nil,
		[]gfd.Literal{gfd.VarEq("y", "val", "yp", "val")})
}

// mayorPartyCountry is Fig. 7 GFD 3: a mayor's city and party must be in
// the same country.
func mayorPartyCountry() *gfd.GFD {
	q := gfd.NewPattern()
	p := q.AddNode("p", "person")
	c := q.AddNode("c", "city")
	z := q.AddNode("z", "country")
	pa := q.AddNode("pa", "party")
	zp := q.AddNode("zp", "country")
	q.AddEdge(p, c, "mayor_of")
	q.AddEdge(c, z, "located_in")
	q.AddEdge(p, pa, "affiliated_to")
	q.AddEdge(pa, zp, "in_country")
	return gfd.MustGFD("mayor_party_country", q, nil,
		[]gfd.Literal{gfd.VarEq("z", "val", "zp", "val")})
}

// flightConsistency is ϕ1 of Example 5 (reduced to id/from/to): flights
// sharing a flight number share origin and destination.
func flightConsistency() *gfd.GFD {
	q := gfd.NewPattern()
	for _, pre := range []string{"x", "y"} {
		f := q.AddNode(gfd.Var(pre), "flight")
		id := q.AddNode(gfd.Var(pre+"1"), "id")
		from := q.AddNode(gfd.Var(pre+"2"), "city")
		to := q.AddNode(gfd.Var(pre+"3"), "city")
		q.AddEdge(f, id, "number")
		q.AddEdge(f, from, "from")
		q.AddEdge(f, to, "to")
	}
	return gfd.MustGFD("flight_consistency", q,
		[]gfd.Literal{gfd.VarEq("x1", "val", "y1", "val")},
		[]gfd.Literal{gfd.VarEq("x2", "val", "y2", "val"), gfd.VarEq("x3", "val", "y3", "val")})
}

func main() {
	// A YAGO2-like stand-in with corrupted entities. The generators live
	// behind the MineGFDs-style public API; here we build the graph by
	// file to show the text format, then inject inconsistencies by hand.
	g := buildNoisyKnowledgeGraph()
	set := gfd.MustSet(childParentCycle(), disjointTypes(), mayorPartyCountry(), flightConsistency())

	// Static analyses first: the rule set must be satisfiable (not dirty
	// itself), and free of redundant rules.
	if ok, conflict := gfd.Satisfiable(set); !ok {
		fmt.Println("rule set is dirty:", conflict)
		return
	}
	reduced := gfd.Reduce(set)
	fmt.Printf("rules: %d (%d after implication reduction)\n", set.Len(), reduced.Len())

	// Prepare once; both engines below run from the same compiled state.
	ctx := context.Background()
	sess, err := gfd.NewSession(g)
	if err != nil {
		panic(err)
	}
	prep, err := sess.Prepare(reduced)
	if err != nil {
		panic(err)
	}

	// Replicated-graph parallel detection.
	rep, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineReplicated, N: 8})
	if err != nil {
		panic(err)
	}
	fmt.Printf("repVal: %d violations, %d units, makespan %d, wall %v\n",
		len(rep.Violations), rep.Units, rep.Makespan, rep.Wall.Round(0))

	// Fragmented-graph detection with simulated data shipment.
	dis, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineFragmented, Frag: gfd.Partition(g, 8)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("disVal: %d violations, shipped %d bytes in %d rounds, wall %v\n",
		len(dis.Violations), dis.BytesShipped, dis.Rounds, dis.Wall.Round(0))

	// Report the inconsistent entities per rule.
	byRule := make(map[string]int)
	for _, v := range rep.Violations {
		byRule[v.Rule]++
	}
	for rule, n := range byRule {
		fmt.Printf("  %-24s %d violating matches\n", rule, n)
	}
}

// buildNoisyKnowledgeGraph lays down a small knowledge graph containing
// one instance of each Fig. 7 inconsistency and a flight-number clash.
func buildNoisyKnowledgeGraph() *gfd.Graph {
	g := gfd.NewGraph(0, 0)

	// Family with an impossible cycle.
	ann := g.AddNode("person", gfd.Attrs{"val": "ann"})
	tom := g.AddNode("person", gfd.Attrs{"val": "tom"})
	g.MustAddEdge(ann, tom, "has_child")
	g.MustAddEdge(ann, tom, "has_parent") // corrupt: tom is also ann's parent

	// Disjoint classes on one entity.
	person := g.AddNode("class", gfd.Attrs{"val": "Person"})
	building := g.AddNode("class", gfd.Attrs{"val": "Building"})
	g.MustAddEdge(person, building, "disjoint_with")
	odd := g.AddNode("entity", gfd.Attrs{"val": "Big_Ben_Smith"})
	g.MustAddEdge(odd, person, "type")
	g.MustAddEdge(odd, building, "type")

	// Mayor of NYC affiliated to a party registered in France.
	us := g.AddNode("country", gfd.Attrs{"val": "US"})
	fr := g.AddNode("country", gfd.Attrs{"val": "FR"})
	nyc := g.AddNode("city", gfd.Attrs{"val": "NYC"})
	dem := g.AddNode("party", gfd.Attrs{"val": "Democratic"})
	mayor := g.AddNode("person", gfd.Attrs{"val": "the_mayor"})
	g.MustAddEdge(nyc, us, "located_in")
	g.MustAddEdge(dem, fr, "in_country")
	g.MustAddEdge(mayor, nyc, "mayor_of")
	g.MustAddEdge(mayor, dem, "affiliated_to")

	// Two DL1 flights with different destinations (Example 1).
	addFlight := func(name, id, from, to string) {
		f := g.AddNode("flight", gfd.Attrs{"val": name})
		sat := func(label, val string) gfd.NodeID {
			return g.AddNode(label, gfd.Attrs{"val": val})
		}
		g.MustAddEdge(f, sat("id", id), "number")
		g.MustAddEdge(f, sat("city", from), "from")
		g.MustAddEdge(f, sat("city", to), "to")
	}
	addFlight("flight1", "DL1", "Paris", "NYC")
	addFlight("flight2", "DL1", "Paris", "Singapore")
	addFlight("flight3", "BA7", "Edi", "Lon")
	addFlight("flight4", "BA7", "Edi", "Lon")
	return g
}
