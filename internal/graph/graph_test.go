package graph

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func buildSample(t *testing.T) *Graph {
	t.Helper()
	g := New(0, 0)
	a := g.AddNode("person", Attrs{"name": "ann", "val": "1"})
	b := g.AddNode("person", Attrs{"name": "bob"})
	c := g.AddNode("city", Attrs{"val": "edi"})
	g.MustAddEdge(a, b, "knows")
	g.MustAddEdge(a, c, "lives_in")
	g.MustAddEdge(b, c, "lives_in")
	return g
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0, 0)
	for i := 0; i < 5; i++ {
		if id := g.AddNode("x", nil); id != NodeID(i) {
			t.Fatalf("node %d got id %d", i, id)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgeRejectsMissingNodes(t *testing.T) {
	g := New(0, 0)
	g.AddNode("x", nil)
	if err := g.AddEdge(0, 7, "e"); err == nil {
		t.Fatal("expected error for missing target")
	}
	if err := g.AddEdge(-1, 0, "e"); err == nil {
		t.Fatal("expected error for negative source")
	}
}

func TestDegreesAndAdjacency(t *testing.T) {
	g := buildSample(t)
	if got := g.OutDegree(0); got != 2 {
		t.Errorf("OutDegree(0) = %d, want 2", got)
	}
	if got := g.InDegree(2); got != 2 {
		t.Errorf("InDegree(2) = %d, want 2", got)
	}
	if got := g.Degree(1); got != 2 {
		t.Errorf("Degree(1) = %d, want 2", got)
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if g.Size() != 6 {
		t.Errorf("Size = %d, want 6", g.Size())
	}
}

func TestHasEdge(t *testing.T) {
	g := buildSample(t)
	if !g.HasEdge(0, 1, "knows") {
		t.Error("expected edge 0-[knows]->1")
	}
	if g.HasEdge(1, 0, "knows") {
		t.Error("edge direction must matter")
	}
	if g.HasEdge(0, 1, "lives_in") {
		t.Error("edge label must matter")
	}
	if !g.HasEdgeAnyLabel(0, 1) {
		t.Error("HasEdgeAnyLabel(0,1) should hold")
	}
	if g.HasEdgeAnyLabel(2, 0) {
		t.Error("HasEdgeAnyLabel(2,0) should not hold")
	}
}

func TestAttrSemantics(t *testing.T) {
	g := buildSample(t)
	if v, ok := g.Attr(0, "name"); !ok || v != "ann" {
		t.Errorf("Attr(0,name) = %q,%v", v, ok)
	}
	if _, ok := g.Attr(1, "val"); ok {
		t.Error("bob has no val attribute")
	}
	g.SetAttr(1, "val", "2")
	if v, ok := g.Attr(1, "val"); !ok || v != "2" {
		t.Errorf("SetAttr failed: %q,%v", v, ok)
	}
	// SetAttr on a node with nil attrs must allocate.
	id := g.AddNode("bare", nil)
	g.SetAttr(id, "k", "v")
	if v, _ := g.Attr(id, "k"); v != "v" {
		t.Error("SetAttr on nil-attrs node failed")
	}
}

func TestLabelIndex(t *testing.T) {
	g := buildSample(t)
	persons := g.NodesWithLabel("person")
	if len(persons) != 2 || persons[0] != 0 || persons[1] != 1 {
		t.Errorf("NodesWithLabel(person) = %v", persons)
	}
	if g.LabelCount("city") != 1 {
		t.Errorf("LabelCount(city) = %d", g.LabelCount("city"))
	}
	if got := g.Labels(); len(got) != 2 || got[0] != "city" || got[1] != "person" {
		t.Errorf("Labels() = %v", got)
	}
	if g.NodesWithLabel("nope") != nil {
		t.Error("unknown label should yield nil")
	}
}

func TestRelabelMaintainsIndex(t *testing.T) {
	g := buildSample(t)
	g.Relabel(1, "city")
	if g.Label(1) != "city" {
		t.Fatalf("Label(1) = %q", g.Label(1))
	}
	if g.LabelCount("person") != 1 {
		t.Errorf("person count = %d, want 1", g.LabelCount("person"))
	}
	cities := g.NodesWithLabel("city")
	if len(cities) != 2 || cities[0] != 1 || cities[1] != 2 {
		t.Errorf("city candidates = %v, want sorted [1 2]", cities)
	}
	// Relabeling away the last member deletes the class.
	g.Relabel(0, "robot")
	if g.LabelCount("person") != 0 {
		t.Error("person class should be empty")
	}
	// No-op relabel.
	g.Relabel(0, "robot")
	if g.LabelCount("robot") != 1 {
		t.Error("no-op relabel corrupted index")
	}
}

func TestNeighborhood(t *testing.T) {
	// Chain 0 -> 1 -> 2 -> 3 with an offshoot 1 -> 4.
	g := New(0, 0)
	for i := 0; i < 5; i++ {
		g.AddNode("n", nil)
	}
	g.MustAddEdge(0, 1, "e")
	g.MustAddEdge(1, 2, "e")
	g.MustAddEdge(2, 3, "e")
	g.MustAddEdge(1, 4, "e")

	tests := []struct {
		start NodeID
		c     int
		want  []NodeID
	}{
		{0, 0, []NodeID{0}},
		{0, 1, []NodeID{0, 1}},
		{0, 2, []NodeID{0, 1, 2, 4}},
		{3, 1, []NodeID{2, 3}}, // undirected: follows in-edges too
		{0, 10, []NodeID{0, 1, 2, 3, 4}},
	}
	for _, tc := range tests {
		got := g.Neighborhood(tc.start, tc.c)
		if len(got) != len(tc.want) {
			t.Errorf("Neighborhood(%d,%d) = %v, want %v", tc.start, tc.c, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("Neighborhood(%d,%d) = %v, want %v", tc.start, tc.c, got, tc.want)
				break
			}
		}
	}
	if g.Neighborhood(99, 1) != nil {
		t.Error("missing node should yield nil neighborhood")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := buildSample(t)
	c := g.Clone()
	c.SetAttr(0, "name", "zed")
	if v, _ := g.Attr(0, "name"); v != "ann" {
		t.Error("clone shares attribute maps")
	}
	c.AddNode("extra", nil)
	if g.NumNodes() != 3 {
		t.Error("clone shares node storage")
	}
	if c.NumEdges() != g.NumEdges() {
		t.Error("clone lost edges")
	}
}

func TestEdgesIterationAndEarlyStop(t *testing.T) {
	g := buildSample(t)
	var seen []Edge
	g.Edges(func(e Edge) bool {
		seen = append(seen, e)
		return true
	})
	if len(seen) != 3 {
		t.Fatalf("iterated %d edges", len(seen))
	}
	count := 0
	g.Edges(func(Edge) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop iterated %d", count)
	}
}

func TestGraphIO(t *testing.T) {
	g := buildSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, names, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip size mismatch: %v vs %v", g2, g)
	}
	if id, ok := names["n0"]; !ok || g2.Label(id) != "person" {
		t.Error("node n0 lost")
	}
	if v, _ := g2.Attr(names["n0"], "name"); v != "ann" {
		t.Error("attribute lost in roundtrip")
	}
	if !g2.HasEdge(names["n0"], names["n1"], "knows") {
		t.Error("edge lost in roundtrip")
	}
}

func TestGraphIOQuotedAttrs(t *testing.T) {
	g := New(0, 0)
	g.AddNode("blog", Attrs{"keyword": "free prize draw"})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := g2.Attr(0, "keyword"); v != "free prize draw" {
		t.Errorf("quoted attr = %q", v)
	}
}

// TestGraphIORoundTripsAnyText: Write quotes every label, attribute name
// and value Read would otherwise split, strip or mangle, and Read inverts
// the quoting exactly.
func TestGraphIORoundTripsAnyText(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode("two words", Attrs{"path": `x\y z`, "quote": `q"r`, "k=v": "=", "": "", "tab": "a\tb\nc"})
	b := g.AddNode("", Attrs{"bad": "\xff\xfe", "nbsp": "a\u00a0b", "plain": `back\slash`})
	g.MustAddEdge(a, b, `say "hi"`)
	g.MustAddEdge(b, a, "")
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read(Write(g)): %v", err)
	}
	requireSameGraph(t, g, g2)
}

// requireSameGraph asserts equal labels, attribute tuples and edges by ID.
func requireSameGraph(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.NumNodes() != got.NumNodes() {
		t.Fatalf("|V| = %d, want %d", got.NumNodes(), want.NumNodes())
	}
	for v := NodeID(0); int(v) < want.NumNodes(); v++ {
		if want.Label(v) != got.Label(v) {
			t.Fatalf("node %d label = %q, want %q", v, got.Label(v), want.Label(v))
		}
		wa, ga := want.NodeAttrs(v), got.NodeAttrs(v)
		if len(wa) != len(ga) {
			t.Fatalf("node %d attrs = %q, want %q", v, ga, wa)
		}
		for k, x := range wa {
			if y, ok := ga[k]; !ok || x != y {
				t.Fatalf("node %d attrs = %q, want %q", v, ga, wa)
			}
		}
	}
	var we, ge []Edge
	want.Edges(func(e Edge) bool { we = append(we, e); return true })
	got.Edges(func(e Edge) bool { ge = append(ge, e); return true })
	if !slices.Equal(we, ge) {
		t.Fatalf("edges = %q, want %q", ge, we)
	}
}

// FuzzReadGraph: Read never panics, and any graph it accepts survives a
// Write / Read round trip unchanged.
func FuzzReadGraph(f *testing.F) {
	f.Add("node a x\nnode b y k=v\nedge a e b\n")
	f.Add(`""`)
	f.Add(`node a x k="v w"`)
	f.Add("node \"a b\" \"l m\" \"k=1\"=2 x=\"\\\\\"\nedge \"a b\" \"e f\" \"a b\"")
	f.Add("node a x k=\"unterminated")
	f.Fuzz(func(t *testing.T, in string) {
		g, _, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		g2, _, err := Read(&buf)
		if err != nil {
			t.Fatalf("Read(Write(g)) of %q: %v\n%s", in, err, buf.String())
		}
		requireSameGraph(t, g, g2)
	})
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		`""`,                         // a lone empty token
		"node a x k=\"v",             // unterminated quote
		"node a \"x\\q\"",            // malformed escape
		"node a",                     // missing label
		"node a x\nnode a y",         // duplicate
		"edge a e b",                 // unknown nodes
		"node a x\nedge a e",         // short edge
		"frob a b",                   // unknown directive
		"node a x k",                 // attribute without '='
		"node a city val=1 val=2",    // attribute named twice
		"node a x \"k\"=1 k=2",       // named twice, once quoted
		"node a x\nnode b y\nedge a", // malformed
	}
	for _, c := range cases {
		if _, _, err := Read(strings.NewReader(c)); err == nil || !strings.HasPrefix(err.Error(), "graph: line ") {
			t.Errorf("Read(%q) = %v, want a line-numbered error", c, err)
		}
	}
	// Comments and blank lines are fine.
	if _, _, err := Read(strings.NewReader("# hi\n\nnode a x\n")); err != nil {
		t.Errorf("comment handling: %v", err)
	}
}

// Property: the c-hop neighborhood is monotone in c and always contains
// the start node.
func TestNeighborhoodMonotoneProperty(t *testing.T) {
	f := func(seed int64, nNodes uint8, nEdges uint8) bool {
		n := int(nNodes%32) + 1
		g := New(n, 0)
		for i := 0; i < n; i++ {
			g.AddNode("x", nil)
		}
		r := seed
		next := func(mod int) int {
			r = r*6364136223846793005 + 1442695040888963407
			v := int(r % int64(mod))
			if v < 0 {
				v = -v
			}
			return v
		}
		for e := 0; e < int(nEdges%64); e++ {
			g.MustAddEdge(NodeID(next(n)), NodeID(next(n)), "e")
		}
		start := NodeID(next(n))
		prev := 0
		for c := 0; c <= 4; c++ {
			nb := g.Neighborhood(start, c)
			if len(nb) < prev {
				return false
			}
			found := false
			for _, v := range nb {
				if v == start {
					found = true
				}
			}
			if !found {
				return false
			}
			prev = len(nb)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
