package core

import (
	"strings"
	"testing"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// capitalPattern builds Q2 of the paper: a country with two capital edges.
func capitalPattern() *pattern.Pattern {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	return q
}

func TestLiteralConstructorsAndString(t *testing.T) {
	c := Const("x", "city", "Edi")
	if c.Kind != Constant || c.C != "Edi" {
		t.Errorf("Const = %+v", c)
	}
	if got := c.String(); !strings.Contains(got, `x.city = "Edi"`) {
		t.Errorf("String = %q", got)
	}
	v := VarEq("x", "A", "y", "B")
	if v.Kind != Variable || v.Y != "y" {
		t.Errorf("VarEq = %+v", v)
	}
	if got := v.String(); got != "x.A = y.B" {
		t.Errorf("String = %q", got)
	}
}

func TestIsTautology(t *testing.T) {
	if !VarEq("x", "A", "x", "A").IsTautology() {
		t.Error("x.A = x.A is a tautology")
	}
	if VarEq("x", "A", "x", "B").IsTautology() {
		t.Error("x.A = x.B is not a tautology")
	}
	if VarEq("x", "A", "y", "A").IsTautology() {
		t.Error("x.A = y.A is not a tautology")
	}
	if Const("x", "A", "c").IsTautology() {
		t.Error("constant literal is never a tautology")
	}
}

func TestNewValidation(t *testing.T) {
	q := capitalPattern()
	if _, err := New("ok", q, nil, []Literal{VarEq("y", "val", "z", "val")}); err != nil {
		t.Errorf("valid GFD rejected: %v", err)
	}
	cases := []struct {
		name string
		x, y []Literal
	}{
		{"unknown X var", []Literal{Const("nope", "A", "c")}, nil},
		{"unknown Y var", nil, []Literal{Const("nope", "A", "c")}},
		{"unknown right var", nil, []Literal{VarEq("y", "A", "nope", "B")}},
		{"empty attr", nil, []Literal{Const("x", "", "c")}},
		{"empty right attr", nil, []Literal{VarEq("x", "A", "y", "")}},
	}
	for _, tc := range cases {
		if _, err := New(tc.name, q, tc.x, tc.y); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := New("nilq", nil, nil, nil); err == nil {
		t.Error("nil pattern must be rejected")
	}
}

// TestNewRejectsCommaInName: a violation's key is the rule name, then
// ",<id>" per match node, so rule "a,1" over [2] and rule "a" over [1 2]
// would both read "a,1,2" and two different sets would compare equal.
func TestNewRejectsCommaInName(t *testing.T) {
	for _, name := range []string{"a,1", ",", "a,"} {
		_, err := New(name, capitalPattern(), nil, []Literal{VarEq("y", "val", "z", "val")})
		if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("New(%q): error %v, want one naming the rule", name, err)
		}
	}
}

func TestClassification(t *testing.T) {
	q := capitalPattern()
	varGFD := MustNew("v", q, nil, []Literal{VarEq("y", "val", "z", "val")})
	if !varGFD.IsVariable() || varGFD.IsConstant() {
		t.Error("variable GFD misclassified")
	}
	constGFD := MustNew("c", q, []Literal{Const("x", "val", "AU")}, []Literal{Const("y", "val", "Canberra")})
	if !constGFD.IsConstant() || constGFD.IsVariable() {
		t.Error("constant GFD misclassified")
	}
	mixed := MustNew("m", q, []Literal{Const("x", "val", "AU")}, []Literal{VarEq("y", "val", "z", "val")})
	if mixed.IsConstant() || mixed.IsVariable() {
		t.Error("mixed GFD is neither constant nor variable")
	}
	// Empty X and Y: vacuously both.
	empty := MustNew("e", q, nil, nil)
	if !empty.IsConstant() || !empty.IsVariable() {
		t.Error("empty GFD is vacuously both")
	}
}

func TestNormalize(t *testing.T) {
	q := capitalPattern()
	f := MustNew("f", q,
		[]Literal{Const("x", "val", "AU")},
		[]Literal{VarEq("y", "val", "z", "val"), Const("y", "val", "Canberra")})
	norm := f.Normalize()
	if len(norm) != 2 {
		t.Fatalf("normalized count = %d", len(norm))
	}
	for _, nf := range norm {
		if len(nf.Y) != 1 {
			t.Error("normal form needs single consequent")
		}
		if len(nf.X) != 1 {
			t.Error("antecedent must be preserved")
		}
	}
	if len(MustNew("e", q, nil, nil).Normalize()) != 0 {
		t.Error("empty Y normalizes to nothing")
	}
}

// capitalGraph builds G3-with-error: one country with two capitals with
// different names, like the Canberra/Melbourne inconsistency.
func capitalGraph(conflicting bool) *graph.Graph {
	g := graph.New(0, 0)
	au := g.AddNode("country", graph.Attrs{"val": "Australia"})
	c1 := g.AddNode("city", graph.Attrs{"val": "Canberra"})
	name2 := "Canberra"
	if conflicting {
		name2 = "Melbourne"
	}
	c2 := g.AddNode("city", graph.Attrs{"val": name2})
	g.MustAddEdge(au, c1, "capital")
	g.MustAddEdge(au, c2, "capital")
	return g
}

func TestSemanticsCapitalViolation(t *testing.T) {
	q := capitalPattern()
	phi2 := MustNew("phi2", q, nil, []Literal{VarEq("y", "val", "z", "val")})
	g := capitalGraph(true)
	h := Match{0, 1, 2}
	if !phi2.SatisfiesX(g, h) {
		t.Error("empty X is always satisfied")
	}
	if phi2.SatisfiesY(g, h) {
		t.Error("Canberra != Melbourne")
	}
	if !phi2.IsViolation(g, h) {
		t.Error("expected violation")
	}
	if phi2.Holds(g, h) {
		t.Error("Holds must be false for a violation")
	}
	// Consistent graph: no violation.
	g2 := capitalGraph(false)
	if phi2.IsViolation(g2, Match{0, 1, 2}) {
		t.Error("consistent capitals flagged")
	}
}

func TestSemanticsMissingAttributeInX(t *testing.T) {
	q := pattern.New()
	q.AddNode("x", "acct")
	f := MustNew("f", q,
		[]Literal{Const("x", "is_fake", "true")},
		[]Literal{Const("x", "flagged", "true")})
	g := graph.New(0, 0)
	bare := g.AddNode("acct", nil) // no is_fake attribute
	h := Match{bare}
	// Missing attribute in X: trivially satisfied, no violation.
	if f.SatisfiesX(g, h) {
		t.Error("missing X attribute must not satisfy X")
	}
	if !f.Holds(g, h) {
		t.Error("GFD holds trivially when X attribute is missing")
	}
}

func TestSemanticsMissingAttributeInY(t *testing.T) {
	q := pattern.New()
	q.AddNode("x", "acct")
	f := MustNew("f", q,
		[]Literal{Const("x", "is_fake", "true")},
		[]Literal{Const("x", "flagged", "true")})
	g := graph.New(0, 0)
	v := g.AddNode("acct", graph.Attrs{"is_fake": "true"}) // no flagged attr
	h := Match{v}
	// X satisfied but Y's attribute missing: violation.
	if !f.IsViolation(g, h) {
		t.Error("missing Y attribute must be a violation when X holds")
	}
}

func TestSemanticsTautologyInYForcesAttribute(t *testing.T) {
	f := RequireAttr("req", "person", "name")
	g := graph.New(0, 0)
	with := g.AddNode("person", graph.Attrs{"name": "ann"})
	without := g.AddNode("person", nil)
	if f.IsViolation(g, Match{with}) {
		t.Error("node with attribute must satisfy the type rule")
	}
	if !f.IsViolation(g, Match{without}) {
		t.Error("node lacking the attribute must violate the type rule")
	}
}

func TestSemanticsVariableLiteralAcrossEntities(t *testing.T) {
	// Blog rule ϕ5 shape: x.text = y.desc.
	q := pattern.New()
	x := q.AddNode("x", "status")
	y := q.AddNode("y", "photo")
	q.AddEdge(x, y, "has_attachment")
	f := MustNew("phi5", q, nil, []Literal{VarEq("x", "text", "y", "desc")})

	g := graph.New(0, 0)
	s := g.AddNode("status", graph.Attrs{"text": "sunset"})
	p := g.AddNode("photo", graph.Attrs{"desc": "sunrise"})
	g.MustAddEdge(s, p, "has_attachment")
	if !f.IsViolation(g, Match{s, p}) {
		t.Error("text/desc mismatch must violate")
	}
	g.SetAttr(p, "desc", "sunset")
	if f.IsViolation(g, Match{s, p}) {
		t.Error("matching text/desc must not violate")
	}
}

func TestSizeMeasure(t *testing.T) {
	q := capitalPattern() // |Q| = 3 + 2 = 5
	f := MustNew("f", q, []Literal{Const("x", "a", "1")}, []Literal{Const("y", "b", "2")})
	if f.Size() != 7 {
		t.Errorf("Size = %d, want 7", f.Size())
	}
}

func TestGFDString(t *testing.T) {
	q := capitalPattern()
	f := MustNew("phi2", q, nil, []Literal{VarEq("y", "val", "z", "val")})
	s := f.String()
	if !strings.Contains(s, "phi2") || !strings.Contains(s, "∅") || !strings.Contains(s, "y.val = z.val") {
		t.Errorf("String = %q", s)
	}
}
