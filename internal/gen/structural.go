package gen

import (
	"fmt"
	"math/rand"

	"gfd/internal/graph"
)

// StructuralErrors records the entities involved in injected structural
// inconsistencies — the real-life error classes of the paper's Fig. 7.
type StructuralErrors struct {
	ChildParentCycles []graph.NodeID // persons with a has_child/has_parent 2-cycle
	DisjointTyped     []graph.NodeID // entities typed with two disjoint classes
	MayorMismatch     []graph.NodeID // mayors whose city and party countries differ
}

// InjectStructural adds perKind instances of each Fig. 7 error motif to a
// knowledge graph built by YAGO2Like/DBpediaLike. Unlike attribute noise,
// these are *topological* inconsistencies: impossible family cycles,
// disjoint type assertions, and mayors whose party sits in the wrong
// country. Only edges and fresh nodes are added; existing data is not
// modified.
func InjectStructural(g *graph.Graph, perKind int, seed int64) StructuralErrors {
	rng := rand.New(rand.NewSource(seed))
	var out StructuralErrors

	persons := g.NodesWithLabel("person")
	for i := 0; i < perKind && len(persons) >= 2; i++ {
		// x gains y as both child and parent: x -has_child-> y and
		// x -has_parent-> y.
		x := persons[rng.Intn(len(persons))]
		y := persons[rng.Intn(len(persons))]
		if x == y {
			continue
		}
		// The pair may already be linked (real family edges, or an earlier
		// iteration drawing it again); skip rather than emit duplicate
		// (from, to, label) triples, which the graph type forbids.
		if g.HasEdge(x, y, "has_child") || g.HasEdge(x, y, "has_parent") {
			continue
		}
		g.MustAddEdge(x, y, "has_child")
		g.MustAddEdge(x, y, "has_parent")
		out.ChildParentCycles = append(out.ChildParentCycles, x)
	}

	classes := g.NodesWithLabel("class")
	// Collect disjoint class pairs.
	type pair struct{ a, b graph.NodeID }
	var disjoint []pair
	for _, c := range classes {
		for _, he := range g.Out(c) {
			if he.Label == "disjoint_with" {
				disjoint = append(disjoint, pair{c, he.To})
			}
		}
	}
	for i := 0; i < perKind && len(disjoint) > 0; i++ {
		p := disjoint[rng.Intn(len(disjoint))]
		e := g.AddNode("entity", graph.Attrs{"val": fmt.Sprintf("odd_entity_%d", i)})
		g.MustAddEdge(e, p.a, "type")
		g.MustAddEdge(e, p.b, "type")
		out.DisjointTyped = append(out.DisjointTyped, e)
	}

	// Mayor of a city in one country, affiliated to a party in another.
	// Only pool cities carry located_in edges (flight satellites are also
	// labeled "city" but have no country), so filter first.
	countryOf := func(v graph.NodeID, label string) graph.NodeID {
		for _, he := range g.Out(v) {
			if he.Label == label {
				return he.To
			}
		}
		return graph.Invalid
	}
	var cities, parties []graph.NodeID
	for _, c := range g.NodesWithLabel("city") {
		if countryOf(c, "located_in") != graph.Invalid {
			cities = append(cities, c)
		}
	}
	for _, p := range g.NodesWithLabel("party") {
		if countryOf(p, "in_country") != graph.Invalid {
			parties = append(parties, p)
		}
	}
	for i := 0; i < perKind && len(cities) > 0 && len(parties) > 0; i++ {
		city := cities[rng.Intn(len(cities))]
		cityCountry := countryOf(city, "located_in")
		if cityCountry == graph.Invalid {
			continue
		}
		// Find a party in a different country.
		var party graph.NodeID = graph.Invalid
		for try := 0; try < 10; try++ {
			cand := parties[rng.Intn(len(parties))]
			if pc := countryOf(cand, "in_country"); pc != graph.Invalid && pc != cityCountry {
				party = cand
				break
			}
		}
		if party == graph.Invalid {
			continue
		}
		m := g.AddNode("person", graph.Attrs{"val": fmt.Sprintf("bad_mayor_%d", i)})
		g.MustAddEdge(m, city, "mayor_of")
		g.MustAddEdge(m, party, "affiliated_to")
		out.MayorMismatch = append(out.MayorMismatch, m)
	}
	return out
}
