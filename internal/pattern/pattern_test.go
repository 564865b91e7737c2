package pattern

import (
	"strings"
	"testing"
)

// q1Flight builds the flight component of the paper's Q1: a flight node
// with five satellites.
func q1Flight(prefix string) *Pattern {
	p := New()
	x := p.AddNode(Var(prefix), "flight")
	labels := []string{"id", "city", "city", "time", "time"}
	edges := []string{"number", "from", "to", "depart", "arrive"}
	for i, l := range labels {
		s := p.AddNode(Var(prefix+string(rune('1'+i))), l)
		p.AddEdge(x, s, edges[i])
	}
	return p
}

func TestAddNodeDuplicateVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate variable")
		}
	}()
	p := New()
	p.AddNode("x", "a")
	p.AddNode("x", "b")
}

func TestAddEdgeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad edge index")
		}
	}()
	p := New()
	p.AddNode("x", "a")
	p.AddEdge(0, 3, "e")
}

func TestVarIndexAndVars(t *testing.T) {
	p := q1Flight("x")
	if i, ok := p.VarIndex("x"); !ok || i != 0 {
		t.Errorf("VarIndex(x) = %d,%v", i, ok)
	}
	if _, ok := p.VarIndex("zz"); ok {
		t.Error("unknown var should not resolve")
	}
	vars := p.Vars()
	if len(vars) != 6 || vars[0] != "x" || vars[1] != "x1" {
		t.Errorf("Vars = %v", vars)
	}
}

func TestSizeMeasures(t *testing.T) {
	p := q1Flight("x")
	if p.NumNodes() != 6 || p.NumEdges() != 5 || p.Size() != 11 {
		t.Errorf("sizes: %d nodes %d edges %d total", p.NumNodes(), p.NumEdges(), p.Size())
	}
}

func TestComponents(t *testing.T) {
	// Two disconnected flight stars (like Q1).
	p := New()
	a := p.AddNode("x", "flight")
	b := p.AddNode("x1", "id")
	p.AddEdge(a, b, "number")
	c := p.AddNode("y", "flight")
	d := p.AddNode("y1", "id")
	p.AddEdge(c, d, "number")

	comps := p.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	if len(comps[0]) != 2 || comps[0][0] != 0 || comps[0][1] != 1 {
		t.Errorf("comp0 = %v", comps[0])
	}
	if len(comps[1]) != 2 || comps[1][0] != 2 {
		t.Errorf("comp1 = %v", comps[1])
	}
}

func TestEccentricityAndCenter(t *testing.T) {
	// Path a -> b -> c: center is b with radius 1.
	p := New()
	a := p.AddNode("a", "n")
	b := p.AddNode("b", "n")
	c := p.AddNode("c", "n")
	p.AddEdge(a, b, "e")
	p.AddEdge(b, c, "e")
	if got := p.Eccentricity(a); got != 2 {
		t.Errorf("ecc(a) = %d, want 2", got)
	}
	if got := p.Eccentricity(b); got != 1 {
		t.Errorf("ecc(b) = %d, want 1", got)
	}
	node, radius := p.Center([]int{0, 1, 2})
	if node != b || radius != 1 {
		t.Errorf("Center = (%d, %d), want (%d, 1)", node, radius, b)
	}
}

func TestCenterStarPattern(t *testing.T) {
	// The flight star: center must be the hub with radius 1.
	p := q1Flight("x")
	comps := p.Components()
	node, radius := p.Center(comps[0])
	if node != 0 || radius != 1 {
		t.Errorf("star center = (%d,%d), want (0,1)", node, radius)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := q1Flight("x")
	c := p.Clone()
	c.AddNode("extra", "n")
	if p.NumNodes() == c.NumNodes() {
		t.Error("clone shares node storage")
	}
	if _, ok := p.VarIndex("extra"); ok {
		t.Error("clone shares variable index")
	}
}

func TestStringRendering(t *testing.T) {
	p := New()
	a := p.AddNode("x", "country")
	b := p.AddNode("y", "city")
	p.AddEdge(a, b, "capital")
	s := p.String()
	if !strings.Contains(s, "(x:country)") || !strings.Contains(s, "x-[capital]->y") {
		t.Errorf("String = %q", s)
	}
}

func TestLabelMatches(t *testing.T) {
	if !LabelMatches(Wildcard, "anything") {
		t.Error("wildcard must match")
	}
	if !LabelMatches("a", "a") || LabelMatches("a", "b") {
		t.Error("concrete labels must compare")
	}
}
