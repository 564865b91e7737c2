package core

import (
	"testing"

	"gfd/internal/graph"
)

// tupleGraph represents relation R tuples as graph nodes labeled R
// (Example 5, ϕ4 setting).
func tupleGraph(rows []graph.Attrs) *graph.Graph {
	g := graph.New(len(rows), 0)
	for _, row := range rows {
		g.AddNode("R", row)
	}
	return g
}

func TestFromFD(t *testing.T) {
	f := FromFD("fd", "R", []string{"A"}, []string{"B"})
	if f.Q.NumNodes() != 2 || f.Q.NumEdges() != 0 {
		t.Fatalf("FD pattern shape: %v", f.Q)
	}
	if !f.IsVariable() {
		t.Error("FD encoding must be a variable GFD")
	}
	g := tupleGraph([]graph.Attrs{
		{"A": "1", "B": "x"},
		{"A": "1", "B": "y"}, // violates A -> B
		{"A": "2", "B": "z"},
	})
	// Match (t0, t1): same A, different B.
	if !f.IsViolation(g, Match{0, 1}) {
		t.Error("FD violation not detected")
	}
	if f.IsViolation(g, Match{0, 2}) {
		t.Error("different A values cannot violate")
	}
}

func TestFromCFD(t *testing.T) {
	// R(country = 44, zip -> street), the paper's CFD example.
	f := FromCFD("cfd", "R",
		[]CFDCondition{{Attr: "country", Value: "44"}},
		[]string{"zip"}, []string{"street"})
	g := tupleGraph([]graph.Attrs{
		{"country": "44", "zip": "EH8", "street": "Mayfield"},
		{"country": "44", "zip": "EH8", "street": "Crichton"}, // violation
		{"country": "01", "zip": "EH8", "street": "Other"},    // out of scope
	})
	if !f.IsViolation(g, Match{0, 1}) {
		t.Error("CFD violation not detected")
	}
	if f.IsViolation(g, Match{0, 2}) {
		t.Error("tuples outside the condition scope cannot violate")
	}
}

func TestFromConstantCFD(t *testing.T) {
	// R(country = 44, area_code = 131 -> city = "Edi") = ϕ4''.
	f := FromConstantCFD("ccfd", "R",
		[]CFDCondition{{Attr: "country", Value: "44"}, {Attr: "area_code", Value: "131"}},
		[]CFDCondition{{Attr: "city", Value: "Edi"}})
	if !f.IsConstant() {
		t.Error("constant CFD encoding must be a constant GFD")
	}
	if f.Q.NumNodes() != 1 {
		t.Error("single-tuple CFD uses a one-node pattern")
	}
	g := tupleGraph([]graph.Attrs{
		{"country": "44", "area_code": "131", "city": "Gla"}, // violation
		{"country": "44", "area_code": "131", "city": "Edi"},
		{"country": "44", "area_code": "20", "city": "Lon"},
	})
	if !f.IsViolation(g, Match{0}) {
		t.Error("constant CFD violation not detected")
	}
	if f.IsViolation(g, Match{1}) || f.IsViolation(g, Match{2}) {
		t.Error("false positives in constant CFD")
	}
}

func TestSetOperations(t *testing.T) {
	f1 := FromFD("a", "R", []string{"A"}, []string{"B"})
	f2 := FromFD("b", "R", []string{"B"}, []string{"C"})
	s, err := NewSet(f1, f2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.Get("a") != f1 || s.Get("zzz") != nil {
		t.Error("Get broken")
	}
	if err := s.Add(FromFD("a", "R", nil, nil)); err == nil {
		t.Error("duplicate name must be rejected")
	}
	if s.Size() <= 0 {
		t.Errorf("Size=%d", s.Size())
	}
}
