// Relational dependencies as GFDs: FDs and CFDs over a relation become
// GFDs over a tuple graph (Example 5, ϕ4 / ϕ4' / ϕ4”), and the classical
// static analyses run on them — including the paper's observation that a
// CFD set can be unsatisfiable on its own.
package main

import (
	"context"
	"fmt"

	"gfd"
)

func main() {
	// The relation cust(country, area_code, zip, city, street, phone),
	// one node labeled "cust" per tuple.
	g := gfd.NewGraph(0, 0)
	rows := []gfd.Attrs{
		{"country": "44", "area_code": "131", "zip": "EH4 1DT", "city": "Edi", "street": "Mayfield"},
		{"country": "44", "area_code": "131", "zip": "EH4 1DT", "city": "Edi", "street": "Crichton"}, // zip→street breach
		{"country": "44", "area_code": "131", "zip": "EH8 9LE", "city": "Lon", "street": "Baker"},    // city should be Edi
		{"country": "01", "area_code": "908", "zip": "07974", "city": "MH", "street": "Mountain Ave"},
	}
	for _, r := range rows {
		g.AddNode("cust", r)
	}

	// ϕ4: the plain FD zip → street, scoped to the UK via conditions —
	// exactly the paper's CFD R(country = 44, zip → street).
	cfd1 := gfd.FromCFD("uk_zip_street", "cust",
		[]gfd.CFDCondition{{Attr: "country", Value: "44"}},
		[]string{"zip"}, []string{"street"})

	// ϕ4'': the constant CFD R(country = 44, area_code = 131 → city = Edi).
	cfd2 := gfd.FromConstantCFD("uk_area_city", "cust",
		[]gfd.CFDCondition{{Attr: "country", Value: "44"}, {Attr: "area_code", Value: "131"}},
		[]gfd.CFDCondition{{Attr: "city", Value: "Edi"}})

	set := gfd.MustSet(cfd1, cfd2)
	fmt.Println("violations over the tuple graph:")
	sess, err := gfd.NewSession(g)
	if err != nil {
		panic(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		panic(err)
	}
	res, err := prep.Detect(context.Background(), gfd.Options{Engine: gfd.EngineSequential})
	if err != nil {
		panic(err)
	}
	for _, v := range res.Violations {
		fmt.Printf("  %s on tuple(s) %v\n", v.Rule, v.Nodes())
	}

	// Static analysis: two constant CFDs forcing different cities for the
	// same condition are unsatisfiable — caught before ever touching data.
	clash := gfd.FromConstantCFD("uk_area_city_conflict", "cust",
		[]gfd.CFDCondition{{Attr: "country", Value: "44"}, {Attr: "area_code", Value: "131"}},
		[]gfd.CFDCondition{{Attr: "city", Value: "Gla"}})
	dirty := gfd.MustSet(cfd2, clash,
		gfd.MustGFD("seed", oneCust(), nil, []gfd.Literal{
			gfd.Const("x", "country", "44"), gfd.Const("x", "area_code", "131"),
		}))
	if ok, conflict := gfd.Satisfiable(dirty); !ok {
		fmt.Println("dirty rule set rejected:", conflict)
	} else {
		fmt.Println("rule set satisfiable")
	}

	// Implication prunes redundant rules: a weaker copy of cfd1 is implied.
	weaker := gfd.FromCFD("uk_zip_street_weaker", "cust",
		[]gfd.CFDCondition{{Attr: "country", Value: "44"}, {Attr: "area_code", Value: "131"}},
		[]string{"zip"}, []string{"street"})
	withWeaker := gfd.MustSet(cfd1, cfd2, weaker)
	reduced := gfd.Reduce(withWeaker)
	fmt.Printf("reduction: %d rules -> %d (dropped the implied CFD)\n",
		withWeaker.Len(), reduced.Len())
}

func oneCust() *gfd.Pattern {
	q := gfd.NewPattern()
	q.AddNode("x", "cust")
	return q
}
