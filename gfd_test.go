package gfd_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gfd"
)

// --- Fig. 7 real-life GFDs, end to end through the public API -------------

// gfd1 is Fig. 7's GFD 1: a person cannot have the same person as both a
// child and a parent. The consequent demands an attribute/value no node
// carries, so every match is a violation (the paper phrases it as
// x.val = c ∧ y.val = d for distinct c, d — constant-false).
func gfd1(t *testing.T) *gfd.GFD {
	t.Helper()
	q := gfd.NewPattern()
	x := q.AddNode("x", "person")
	y := q.AddNode("y", "person")
	q.AddEdge(x, y, "has_child")
	q.AddEdge(y, x, "has_child")
	f, err := gfd.NewGFD("gfd1_child_parent_cycle", q, nil,
		[]gfd.Literal{gfd.Const("x", "__absurd", "1")})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// gfd2 is Fig. 7's GFD 2: an entity cannot have two disjoint types.
func gfd2(t *testing.T) *gfd.GFD {
	t.Helper()
	q := gfd.NewPattern()
	x := q.AddNode("x", gfd.Wildcard)
	y := q.AddNode("y", "class")
	yp := q.AddNode("yp", "class")
	q.AddEdge(x, y, "type")
	q.AddEdge(x, yp, "type")
	q.AddEdge(y, yp, "disjoint_with")
	f, err := gfd.NewGFD("gfd2_disjoint_types", q, nil,
		[]gfd.Literal{gfd.VarEq("y", "val", "yp", "val")})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// gfd3 is Fig. 7's GFD 3: if a person is mayor of a city in country z and
// affiliated to a party of country z', then z = z'.
func gfd3(t *testing.T) *gfd.GFD {
	t.Helper()
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
	f, err := gfd.NewGFD("gfd3_mayor_party_country", q, nil,
		[]gfd.Literal{gfd.VarEq("z", "val", "zp", "val")})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fig7Graph builds a small knowledge graph containing one violation of
// each Fig. 7 rule plus consistent counterparts.
func fig7Graph(t *testing.T) *gfd.Graph {
	t.Helper()
	g := gfd.NewGraph(0, 0)
	// GFD 1: ann <-> tom child cycle (error); sue -> kid consistent.
	ann := g.AddNode("person", gfd.Attrs{"val": "ann"})
	tom := g.AddNode("person", gfd.Attrs{"val": "tom"})
	sue := g.AddNode("person", gfd.Attrs{"val": "sue"})
	kid := g.AddNode("person", gfd.Attrs{"val": "kid"})
	g.MustAddEdge(ann, tom, "has_child")
	g.MustAddEdge(tom, ann, "has_child")
	g.MustAddEdge(sue, kid, "has_child")

	// GFD 2: entity typed with two disjoint classes (error).
	c1 := g.AddNode("class", gfd.Attrs{"val": "Person"})
	c2 := g.AddNode("class", gfd.Attrs{"val": "Building"})
	g.MustAddEdge(c1, c2, "disjoint_with")
	e := g.AddNode("thing", gfd.Attrs{"val": "oddity"})
	g.MustAddEdge(e, c1, "type")
	g.MustAddEdge(e, c2, "type")

	// GFD 3: NYC in country US, Democratic Party in country FR (error).
	us := g.AddNode("country", gfd.Attrs{"val": "US"})
	fr := g.AddNode("country", gfd.Attrs{"val": "FR"})
	nyc := g.AddNode("city", gfd.Attrs{"val": "NYC"})
	dem := g.AddNode("party", gfd.Attrs{"val": "Democratic"})
	mayor := g.AddNode("person", gfd.Attrs{"val": "mayor"})
	g.MustAddEdge(nyc, us, "located_in")
	g.MustAddEdge(dem, fr, "in_country")
	g.MustAddEdge(mayor, nyc, "mayor_of")
	g.MustAddEdge(mayor, dem, "affiliated_to")
	return g
}

// detect runs one engine (4 workers) over a one-shot session.
func detect(t testing.TB, g *gfd.Graph, set *gfd.Set, engine gfd.Engine) *gfd.Result {
	t.Helper()
	sess, err := gfd.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Detect(context.Background(), gfd.Options{Engine: engine, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFig7RealLifeGFDs(t *testing.T) {
	g := fig7Graph(t)
	set := gfd.MustSet(gfd1(t), gfd2(t), gfd3(t))
	vio := detect(t, g, set, gfd.EngineSequential).Violations

	byRule := make(map[string]int)
	for _, v := range vio {
		byRule[v.Rule]++
	}
	// GFD 1 fires in both orders of the cycle; GFD 2 in both orders only
	// if disjoint_with were symmetric (it is directed here): one match.
	if byRule["gfd1_child_parent_cycle"] != 2 {
		t.Errorf("GFD1 violations = %d, want 2", byRule["gfd1_child_parent_cycle"])
	}
	if byRule["gfd2_disjoint_types"] != 1 {
		t.Errorf("GFD2 violations = %d, want 1", byRule["gfd2_disjoint_types"])
	}
	if byRule["gfd3_mayor_party_country"] != 1 {
		t.Errorf("GFD3 violations = %d, want 1", byRule["gfd3_mayor_party_country"])
	}
}

func TestFig7ParallelEnginesAgree(t *testing.T) {
	g := fig7Graph(t)
	set := gfd.MustSet(gfd1(t), gfd2(t), gfd3(t))
	want := detect(t, g, set, gfd.EngineSequential).Violations

	rep := detect(t, g, set, gfd.EngineReplicated)
	if !rep.Violations.Equal(want) {
		t.Errorf("EngineReplicated diverges: %d vs %d", len(rep.Violations), len(want))
	}
	dis := detect(t, g, set, gfd.EngineFragmented)
	if !dis.Violations.Equal(want) {
		t.Errorf("EngineFragmented diverges: %d vs %d", len(dis.Violations), len(want))
	}
}

// TestSessionPublicAPI drives the session lifecycle through the facade:
// every engine constant agrees with a one-shot sequential run on the
// Fig. 7 workload, and one graph version means one freeze across all of
// them.
func TestSessionPublicAPI(t *testing.T) {
	g := fig7Graph(t)
	set := gfd.MustSet(gfd1(t), gfd2(t), gfd3(t))
	want := detect(t, g, set, gfd.EngineSequential).Violations

	sess, err := gfd.NewSession(g)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, engine := range []gfd.Engine{gfd.EngineAuto, gfd.EngineSequential, gfd.EngineReplicated, gfd.EngineFragmented} {
		res, err := prep.Detect(ctx, gfd.Options{Engine: engine, N: 4})
		if err != nil {
			t.Fatalf("engine %v: %v", engine, err)
		}
		if !res.Violations.Equal(want) {
			t.Errorf("engine %v diverges from the sequential run: %d vs %d", engine, len(res.Violations), len(want))
		}
	}
	// BigDansing evaluates the same rules relationally — same answers.
	res, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineBigDansing, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(want) {
		t.Errorf("EngineBigDansing diverges: %d vs %d", len(res.Violations), len(want))
	}
	var streamed gfd.Report
	for v, err := range prep.Violations(ctx, gfd.Options{}) {
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, v)
	}
	streamed.Sort()
	if !streamed.Equal(want) {
		t.Errorf("Violations diverges: %d vs %d", len(streamed), len(want))
	}
	if builds := g.SnapshotBuilds(); builds != 1 {
		t.Errorf("snapshot builds = %d across all engines, want 1", builds)
	}
}

func TestPublicReasoningAPI(t *testing.T) {
	// Example 7's conflicting pair through the public API.
	q1 := gfd.NewPattern()
	q1.AddNode("x", "tau")
	f1 := gfd.MustGFD("a", q1, nil, []gfd.Literal{gfd.Const("x", "A", "c")})
	q2 := gfd.NewPattern()
	q2.AddNode("x", "tau")
	f2 := gfd.MustGFD("b", q2, nil, []gfd.Literal{gfd.Const("x", "A", "d")})

	ok, conflict := gfd.Satisfiable(gfd.MustSet(f1, f2))
	if ok || conflict == nil {
		t.Error("conflicting constants must be unsatisfiable")
	}
	if ok, _ := gfd.Satisfiable(gfd.MustSet(f1)); !ok {
		t.Error("single rule is satisfiable")
	}
	if !gfd.Implies(gfd.MustSet(f1), f1) {
		t.Error("Σ implies its own members")
	}
	if red := gfd.Reduce(gfd.MustSet(f1)); red.Len() != 1 {
		t.Error("nothing to reduce")
	}
}

func TestPublicEncodings(t *testing.T) {
	fd := gfd.FromFD("fd", "R", []string{"A"}, []string{"B"})
	if !fd.IsVariable() {
		t.Error("FD encoding should be variable")
	}
	cfd := gfd.FromCFD("cfd", "R", []gfd.CFDCondition{{Attr: "cc", Value: "44"}}, []string{"zip"}, []string{"street"})
	if cfd.IsVariable() || cfd.IsConstant() {
		t.Error("CFD encoding mixes literal kinds")
	}
	ccfd := gfd.FromConstantCFD("ccfd", "R",
		[]gfd.CFDCondition{{Attr: "cc", Value: "44"}},
		[]gfd.CFDCondition{{Attr: "city", Value: "Edi"}})
	if !ccfd.IsConstant() {
		t.Error("constant CFD encoding should be constant")
	}
	req := gfd.RequireAttr("req", "person", "name")
	if len(req.Y) != 1 || !req.Y[0].IsTautology() {
		t.Error("RequireAttr should produce an existence tautology")
	}
}

func TestPublicIO(t *testing.T) {
	g := fig7Graph(t)
	var gbuf bytes.Buffer
	if err := gfd.WriteGraph(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := gfd.ReadGraph(&gbuf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() {
		t.Error("graph roundtrip lost nodes")
	}

	set := gfd.MustSet(gfd1(t), gfd3(t))
	var rbuf bytes.Buffer
	if err := gfd.WriteRules(&rbuf, set); err != nil {
		t.Fatal(err)
	}
	set2, err := gfd.ParseRules(&rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if set2.Len() != 2 {
		t.Error("rules roundtrip lost rules")
	}
	// The reparsed rules detect the same violations.
	want := detect(t, g, set, gfd.EngineSequential).Violations
	got := detect(t, g, set2, gfd.EngineSequential).Violations
	if !got.Equal(want) {
		t.Error("reparsed rules disagree")
	}
}

// TestWriteOpenedSnapshot: the text form of a graph opened from a .gfds
// file, read back and frozen, equals the opened snapshot by names, and
// writing it leaves the opened graph sealed.
func TestWriteOpenedSnapshot(t *testing.T) {
	ctx := context.Background()
	g := fig7Graph(t)
	odd := g.AddNode("city", gfd.Attrs{"val": "São Paulo", "note": `say "hi"`, "k=v": ""})
	g.MustAddEdge(odd, 0, "named after")
	path := filepath.Join(t.TempDir(), "g.gfds")
	if err := gfd.SaveSnapshot(ctx, g, path); err != nil {
		t.Fatal(err)
	}
	_, l, err := gfd.OpenSnapshot(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	opened := l.Snapshot()
	var buf bytes.Buffer
	if err := gfd.WriteGraph(&buf, opened.Graph()); err != nil {
		t.Fatal(err)
	}
	back, _, err := gfd.ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := byNames(back.Freeze()), byNames(opened); got != want {
		t.Fatalf("read back:\n%s\nopened:\n%s", got, want)
	}
	if !opened.Graph().Sealed() {
		t.Error("writing the opened graph unsealed it")
	}
}

// byNames renders a snapshot with every code resolved to its name: per
// node its label, its attribute pairs and its adjacency in both
// directions, each sorted, so snapshots over different symbol tables
// compare as text.
func byNames(s *gfd.Snapshot) string {
	syms := s.Syms()
	var b strings.Builder
	adjacency := func(v gfd.NodeID, in bool) []string {
		es := s.Out(v)
		if in {
			es = s.In(v)
		}
		out := make([]string, len(es))
		for i, e := range es {
			out[i] = fmt.Sprintf("%s>%d", syms.Name(s.EdgeLabel(e.Label)), e.To)
		}
		slices.Sort(out)
		return out
	}
	for v := 0; v < s.NumNodes(); v++ {
		id := gfd.NodeID(v)
		var attrs []string
		for _, p := range s.AttrPairs(id) {
			attrs = append(attrs, syms.Name(p.Name)+"="+syms.Name(p.Val))
		}
		slices.Sort(attrs)
		fmt.Fprintf(&b, "%d %s %q out=%v in=%v\n", v, s.LabelName(id), attrs, adjacency(id, false), adjacency(id, true))
	}
	return b.String()
}

func TestParseRulesFromSource(t *testing.T) {
	src := `
gfd capital {
  node x country
  node y city
  node z city
  edge x capital y
  edge x capital z
  then y.val = z.val
}`
	set, err := gfd.ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := gfd.NewGraph(0, 0)
	au := g.AddNode("country", gfd.Attrs{"val": "AU"})
	c1 := g.AddNode("city", gfd.Attrs{"val": "Canberra"})
	c2 := g.AddNode("city", gfd.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, c1, "capital")
	g.MustAddEdge(au, c2, "capital")
	if len(detect(t, g, set, gfd.EngineSequential).Violations) != 2 {
		t.Error("parsed capital rule must flag the two-capitals country")
	}
}

func TestMineAPI(t *testing.T) {
	g := gfd.NewGraph(0, 0)
	for i := 0; i < 30; i++ {
		p := g.AddNode("person", gfd.Attrs{"val": string(rune('a' + i%26))})
		c := g.AddNode("city", gfd.Attrs{"val": "c" + string(rune('0'+i%3))})
		g.MustAddEdge(p, c, "born_in")
	}
	set := gfd.MineGFDs(g, gfd.MineConfig{NumRules: 2, PatternSize: 2, Seed: 1})
	for _, f := range set.Rules() {
		if err := f.Check(); err != nil {
			t.Error(err)
		}
	}
}

func TestDetectRepairLoop(t *testing.T) {
	// End-to-end data-cleaning loop: detect violations, apply confident
	// repairs, re-validate to a clean graph.
	g := gfd.NewGraph(0, 0)
	bad := g.AddNode("R", gfd.Attrs{"area_code": "131", "city": "Gla"})
	g.AddNode("R", gfd.Attrs{"area_code": "131", "city": "Edi"})
	rule := gfd.FromConstantCFD("uk_area_city", "R",
		[]gfd.CFDCondition{{Attr: "area_code", Value: "131"}},
		[]gfd.CFDCondition{{Attr: "city", Value: "Edi"}})
	set := gfd.MustSet(rule)

	vio := detect(t, g, set, gfd.EngineSequential).Violations
	if len(vio) != 1 {
		t.Fatalf("violations = %d", len(vio))
	}
	sugg := gfd.SuggestRepairs(g, set, vio)
	if len(sugg) != 1 || sugg[0].Node != bad {
		t.Fatalf("suggestions = %v", sugg)
	}
	if n := gfd.ApplyRepairs(g, sugg, 0.9); n != 1 {
		t.Fatalf("applied = %d", n)
	}
	if left := detect(t, g, set, gfd.EngineSequential).Violations; len(left) != 0 {
		t.Errorf("graph must satisfy Σ after repair, %d violations left", len(left))
	}
}
