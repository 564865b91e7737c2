package core

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"gfd/internal/pattern"
)

const sampleRules = `
# flight consistency, the paper's phi1
gfd phi1 {
  node x flight
  node x1 id
  node y flight
  node y1 id
  edge x number x1
  edge y number y1
  when x1.val = y1.val
  then x.dest = y.dest
}

gfd capital {
  node x country
  node y city
  node z city
  edge x capital y
  edge x capital z
  then y.val = z.val
}

gfd fake {
  node a account
  when a.is_fake = "true", a.region = r1
  then a.flagged = true
}
`

func TestParseRules(t *testing.T) {
	set, err := ParseRules(strings.NewReader(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("parsed %d rules", set.Len())
	}
	phi1 := set.Get("phi1")
	if phi1 == nil {
		t.Fatal("phi1 missing")
	}
	if phi1.Q.NumNodes() != 4 || phi1.Q.NumEdges() != 2 {
		t.Errorf("phi1 pattern: %v", phi1.Q)
	}
	if len(phi1.X) != 1 || phi1.X[0].Kind != Variable {
		t.Errorf("phi1.X = %v", phi1.X)
	}
	if len(phi1.Y) != 1 || phi1.Y[0].Kind != Variable {
		t.Errorf("phi1.Y = %v", phi1.Y)
	}

	capital := set.Get("capital")
	if len(capital.X) != 0 {
		t.Error("capital has empty X")
	}

	fake := set.Get("fake")
	if len(fake.X) != 2 {
		t.Fatalf("fake.X = %v", fake.X)
	}
	// Quoted and unquoted constants both parse as constants; "r1" is a
	// constant because r1 is not a declared variable.
	for _, l := range fake.X {
		if l.Kind != Constant {
			t.Errorf("literal %v should be constant", l)
		}
	}
	if fake.X[0].C != "true" || fake.X[1].C != "r1" {
		t.Errorf("constants = %q, %q", fake.X[0].C, fake.X[1].C)
	}
}

func TestParseRulesVarVsConstantDisambiguation(t *testing.T) {
	// y1.val on the right is a variable literal only when y1 is declared.
	src := `
gfd g {
  node x a
  when x.attr = y1.val
}`
	set, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	l := set.Get("g").X[0]
	if l.Kind != Constant || l.C != "y1.val" {
		t.Errorf("undeclared dotted RHS should be a constant: %v", l)
	}
}

func TestParseRulesErrors(t *testing.T) {
	cases := []string{
		"gfd a {\n  node x l\n",                         // unterminated
		"}",                                             // stray brace
		"node x l",                                      // outside block
		"gfd a {\n  gfd b {\n}\n}",                      // nested
		"gfd a\n",                                       // missing brace
		"gfd a {\n  node x\n}",                          // short node
		"gfd a {\n  edge x e y\n}",                      // unknown vars
		"gfd a {\n  node x l\n  edge x e\n}",            // short edge
		"gfd a {\n  node x l\n  when x.attr\n}",         // no '='
		"gfd a {\n  node x l\n  when attr = 3\n}",       // no var.attr lhs
		"gfd a {\n  node x l\n  when q.attr = 3\n}",     // undeclared lhs var
		"gfd a {\n  node x l\n  frobnicate\n}",          // unknown directive
		"gfd a {\n  node x l\n}\ngfd a {\n node y l\n}", // duplicate names
		"gfd my rule {\n  node x l\n}",                  // extra header token
		"gfd \"\" {\n  node x l\n}",                     // empty name
		"gfd a {\n  node x l\n  node x m\n}",            // duplicate variable
		"gfd a {\n  node x.y l\n}",                      // dotted variable
	}
	for _, c := range cases {
		if _, err := ParseRules(strings.NewReader(c)); err == nil {
			t.Errorf("ParseRules(%q) should fail", c)
		}
	}
}

func TestParseRulesRejectsCommaInName(t *testing.T) {
	_, err := ParseRules(strings.NewReader("gfd ok {\n  node x l\n}\ngfd a,1 {\n  node x l\n}\n"))
	if err == nil || !strings.Contains(err.Error(), `"a,1"`) || !strings.Contains(err.Error(), "line 6") {
		t.Fatalf("ParseRules: error %v, want one naming rule \"a,1\" at line 6", err)
	}
}

func TestRulesRoundTrip(t *testing.T) {
	set, err := ParseRules(strings.NewReader(sampleRules))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteRules(&buf, set); err != nil {
		t.Fatal(err)
	}
	set2, err := ParseRules(&buf)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	if set2.Len() != set.Len() {
		t.Fatalf("roundtrip lost rules: %d vs %d", set2.Len(), set.Len())
	}
	for _, f := range set.Rules() {
		f2 := set2.Get(f.Name)
		if f2 == nil {
			t.Fatalf("rule %s lost", f.Name)
		}
		if f2.Q.NumNodes() != f.Q.NumNodes() || f2.Q.NumEdges() != f.Q.NumEdges() {
			t.Errorf("%s: pattern changed", f.Name)
		}
		if len(f2.X) != len(f.X) || len(f2.Y) != len(f.Y) {
			t.Errorf("%s: literals changed", f.Name)
		}
	}
}

func TestRoundTripQuotedConstant(t *testing.T) {
	src := "gfd g {\n  node x blog\n  when x.keyword = \"free prize, draw\"\n  then x.spam = \"yes\"\n}\n"
	set, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if got := set.Get("g").X[0].C; got != "free prize, draw" {
		t.Fatalf("quoted comma constant = %q", got)
	}
	var buf bytes.Buffer
	if err := WriteRules(&buf, set); err != nil {
		t.Fatal(err)
	}
	set2, err := ParseRules(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := set2.Get("g").X[0].C; got != "free prize, draw" {
		t.Errorf("roundtripped constant = %q", got)
	}
}

// sameRules reports the first difference between two rule sets in names,
// patterns or literals, or "".
func sameRules(a, b *Set) string {
	if a.Len() != b.Len() {
		return fmt.Sprintf("%d rules, then %d", a.Len(), b.Len())
	}
	for i, f := range a.Rules() {
		g := b.Rules()[i]
		switch {
		case f.Name != g.Name:
			return fmt.Sprintf("rule %d: name %q, then %q", i, f.Name, g.Name)
		case !slices.Equal(f.Q.Nodes, g.Q.Nodes) || !slices.Equal(f.Q.Edges, g.Q.Edges):
			return fmt.Sprintf("%s: pattern %v, then %v", f.Name, f.Q, g.Q)
		case !slices.Equal(f.X, g.X) || !slices.Equal(f.Y, g.Y):
			return fmt.Sprintf("%s: literals %q → %q, then %q → %q", f.Name, f.X, f.Y, g.X, g.Y)
		}
	}
	return ""
}

// roundTrip writes set and reads it back.
func roundTrip(set *Set) (*Set, string, error) {
	var buf bytes.Buffer
	if err := WriteRules(&buf, set); err != nil {
		return nil, "", err
	}
	text := buf.String()
	back, err := ParseRules(&buf)
	return back, text, err
}

// TestWriteRulesRoundTripsConstants writes constants holding the quote,
// backslash, comma and '=' the literal scanner cuts on, each followed by
// a second literal, and reads back the same literals.
func TestWriteRulesRoundTripsConstants(t *testing.T) {
	for _, c := range []string{`a"=b`, `a\`, `"`, `\"`, "x, y.B = z", "tab\there", "\xff"} {
		q := pattern.New()
		q.AddNode("x", "l")
		set := MustNewSet(MustNew("r", q, []Literal{Const("x", "A", c), Const("x", "B", "d")}, []Literal{Const("x", "A", c), Const("x", "B", "c")}))
		back, text, err := roundTrip(set)
		if err != nil {
			t.Fatalf("constant %q: %v\n%s", c, err, text)
		}
		if diff := sameRules(set, back); diff != "" {
			t.Fatalf("constant %q: %s\n%s", c, diff, text)
		}
	}
}

// TestWriteRulesRejectsUnwritable: a rule whose name, variable, label or
// attribute the format cannot carry is refused, and nothing is written.
func TestWriteRulesRejectsUnwritable(t *testing.T) {
	rule := func(name string, v pattern.Var, label, edge, attr string) *GFD {
		q := pattern.New()
		x := q.AddNode(v, label)
		q.AddEdge(x, q.AddNode("y", "l"), edge)
		return MustNew(name, q, nil, []Literal{Const(v, attr, "c")})
	}
	for _, f := range []*GFD{
		rule("my rule", "x", "l", "e", "A"),
		rule(`"r"`, "x", "l", "e", "A"),
		rule("r", "x.z", "l", "e", "A"),
		rule("r", "x=z", "l", "e", "A"),
		rule("r", "x", "New York", "e", "A"),
		rule("r", "x", "l", "has\tchild", "A"),
		rule("r", "x", "", "e", "A"),
		rule("r", "x", "l", "e", "a b"),
		rule("r", "x", "l", "e", "a=b"),
		rule("r", "x", "l", "e", `a"b`),
	} {
		var buf bytes.Buffer
		if err := WriteRules(&buf, MustNewSet(MustNew("ok", pattern.New(), nil, nil), f)); err == nil || buf.Len() != 0 {
			t.Errorf("rule %q %v %q: WriteRules wrote %q, error %v; want an error and nothing written", f.Name, f.Q, f.Y, buf.String(), err)
		}
	}
}

// FuzzParseRules: ParseRules never panics, and any rule set it accepts
// survives WriteRules → ParseRules with the same names, patterns and
// literals.
func FuzzParseRules(f *testing.F) {
	f.Add(sampleRules)
	f.Add("gfd my rule {\n}\n")
	f.Add("gfd r {\n  node x l\n  then x.A = \"a\\\"=b\", x.B = \"c\"\n}\n")
	f.Add("gfd \"r\" {\n  node x New York\n  node y _\n  edge x _ y\n  when x.a.b = y.c, x.d = y.e\n}\n")
	f.Fuzz(func(t *testing.T, in string) {
		set, err := ParseRules(strings.NewReader(in))
		if err != nil {
			return
		}
		back, text, err := roundTrip(set)
		if err != nil {
			t.Fatalf("accepted set does not round-trip: %v\n%s", err, text)
		}
		if diff := sameRules(set, back); diff != "" {
			t.Fatalf("round trip changed the set: %s\n%s", diff, text)
		}
	})
}
