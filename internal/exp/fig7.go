package exp

import (
	"context"
	"slices"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

// Fig7Rules builds the three real-life GFDs of the paper's Fig. 7 over the
// knowledge-graph vocabulary of the YAGO2/DBpedia stand-ins.
func Fig7Rules() *core.Set {
	// GFD 1: a person cannot have the same person as both child and
	// parent. The consequent is constant-false (the paper writes it as
	// ∅ → x.val = c ∧ y.val = d for distinct constants).
	q1 := pattern.New()
	x := q1.AddNode("x", "person")
	y := q1.AddNode("y", "person")
	q1.AddEdge(x, y, "has_child")
	q1.AddEdge(x, y, "has_parent")
	gfd1 := core.MustNew("fig7_gfd1_child_parent", q1, nil,
		[]core.Literal{core.Const("x", "__absurd", "impossible")})

	// GFD 2: no entity carries two disjoint types.
	q2 := pattern.New()
	e := q2.AddNode("e", pattern.Wildcard)
	c := q2.AddNode("c", "class")
	cp := q2.AddNode("cp", "class")
	q2.AddEdge(e, c, "type")
	q2.AddEdge(e, cp, "type")
	q2.AddEdge(c, cp, "disjoint_with")
	gfd2 := core.MustNew("fig7_gfd2_disjoint_types", q2, nil,
		[]core.Literal{core.VarEq("c", "val", "cp", "val")})

	// GFD 3: a mayor's city country and party country coincide.
	q3 := pattern.New()
	p := q3.AddNode("p", "person")
	ct := q3.AddNode("ct", "city")
	z := q3.AddNode("z", "country")
	pa := q3.AddNode("pa", "party")
	zp := q3.AddNode("zp", "country")
	q3.AddEdge(p, ct, "mayor_of")
	q3.AddEdge(ct, z, "located_in")
	q3.AddEdge(p, pa, "affiliated_to")
	q3.AddEdge(pa, zp, "in_country")
	gfd3 := core.MustNew("fig7_gfd3_mayor_party", q3, nil,
		[]core.Literal{core.VarEq("z", "val", "zp", "val")})

	return core.MustNewSet(gfd1, gfd2, gfd3)
}

// Fig7Finding is one rule's detection outcome.
type Fig7Finding struct {
	Rule       string
	Injected   int // structural errors of this class injected
	Violations int // violating matches found
	Caught     int // injected entities appearing in violations
}

// Fig7RealLife reproduces Exp-5's Fig. 7: inject the paper's three
// real-life error classes into a YAGO2-like graph and report what the
// corresponding GFDs catch. Each injected error must be caught; the
// experiment fails the reproduction if Caught < Injected for any rule.
func Fig7RealLife(scale int, perKind int, seed int64) []Fig7Finding {
	if scale <= 0 {
		scale = 300
	}
	if perKind <= 0 {
		perKind = 5
	}
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: scale, Seed: seed})
	errs := gen.InjectStructural(g, perKind, seed+1)
	set := Fig7Rules()
	res, err := validate.RepValB(context.Background(), validate.NewBundle(g, set), validate.Options{N: 8}, nil)
	if err != nil {
		panic(err)
	}

	caughtBy := func(rule string, injected []graph.NodeID) (count, caught int) {
		var flagged []graph.NodeID
		for _, v := range res.Violations {
			if v.Rule != rule {
				continue
			}
			count++
			flagged = append(flagged, v.Nodes()...)
		}
		slices.Sort(flagged)
		for _, e := range injected {
			if _, ok := slices.BinarySearch(flagged, e); ok {
				caught++
			}
		}
		return count, caught
	}

	var out []Fig7Finding
	v1, c1 := caughtBy("fig7_gfd1_child_parent", errs.ChildParentCycles)
	out = append(out, Fig7Finding{"fig7_gfd1_child_parent", len(errs.ChildParentCycles), v1, c1})
	v2, c2 := caughtBy("fig7_gfd2_disjoint_types", errs.DisjointTyped)
	out = append(out, Fig7Finding{"fig7_gfd2_disjoint_types", len(errs.DisjointTyped), v2, c2})
	v3, c3 := caughtBy("fig7_gfd3_mayor_party", errs.MayorMismatch)
	out = append(out, Fig7Finding{"fig7_gfd3_mayor_party", len(errs.MayorMismatch), v3, c3})
	return out
}
