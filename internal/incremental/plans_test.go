package incremental_test

import (
	"context"
	"fmt"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// TestWarmUpdatesMakeNoPlans: over an update stream, neither the detector's
// Apply nor the session's sequential scan of the shared overlay misses the
// plan cache after the first op — every batch has the same shape, so each
// op pins the same pattern nodes — at three and more overlay versions and
// across a compaction, and the maintained set equals the scan's.
func TestWarmUpdatesMakeNoPlans(t *testing.T) {
	g := graph.New(0, 0)
	var as, bs []graph.NodeID
	for i := range 40 {
		as = append(as, g.AddNode("A", graph.Attrs{"p": fmt.Sprint(i % 3), "q": fmt.Sprint(i % 2)}))
		bs = append(bs, g.AddNode("B", graph.Attrs{"p": fmt.Sprint(i % 3), "q": "0"}))
	}
	for i := range as {
		g.MustAddEdge(as[i], bs[(i*7)%len(bs)], "e")
		g.MustAddEdge(bs[i], as[(i*3+1)%len(as)], "f")
	}
	pair := pattern.New()
	pair.AddEdge(pair.AddNode("a", "A"), pair.AddNode("b", "B"), "e")
	path := pattern.New()
	a, b, c := path.AddNode("a", "A"), path.AddNode("b", "B"), path.AddNode("c", "A")
	path.AddEdge(a, b, "e")
	path.AddEdge(b, c, "f")
	set := core.MustNewSet(
		core.MustNew("pair", pair, []core.Literal{core.VarEq("a", "p", "b", "p")}, []core.Literal{core.VarEq("a", "q", "b", "q")}),
		core.MustNew("path", path, []core.Literal{core.VarEq("a", "p", "c", "p")}, []core.Literal{core.VarEq("a", "q", "c", "q")}),
	)
	sess, err := session.New(g)
	if err != nil {
		t.Fatal(err)
	}
	det := sess.Incremental(set)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	first := det.Overlay()
	var detPlans, scanPlans int
	for op := range 6 {
		reps := 1
		if op == 3 {
			reps = 12 // carries the delta past graph.CompactFraction
		}
		var batch []incremental.Update
		for k := range reps {
			i := (op*reps + k) % len(as)
			batch = append(batch,
				incremental.AddNode{Label: "A", Attrs: graph.Attrs{"p": "1", "q": "1"}},
				incremental.AddNode{Label: "B", Attrs: graph.Attrs{"p": "1", "q": "0"}},
				incremental.AddEdge{From: as[(i+20)%len(as)], To: bs[(i+5)%len(bs)], Label: "e"},
				incremental.AddEdge{From: bs[(i+30)%len(bs)], To: as[(i+11)%len(as)], Label: "f"},
				incremental.SetAttr{Node: as[i], Attr: "q", Value: fmt.Sprint(op % 2)},
			)
		}
		det.Apply(batch...)
		var scan validate.Report
		for v, err := range prep.Violations(context.Background(), validate.Options{Engine: validate.EngineSequential}) {
			if err != nil {
				t.Fatal(err)
			}
			scan = append(scan, v)
		}
		scan.Sort()
		if got := det.Report(); !got.Equal(scan) {
			t.Fatalf("op %d: the detector maintains %d violations, the scan finds %d", op, len(got), len(scan))
		}
		d, s := det.Plans(), prep.Bundle().Plans().Misses()
		if op == 0 {
			detPlans, scanPlans = d, s
			continue
		}
		if d != detPlans || s != scanPlans {
			t.Fatalf("op %d made %d detector and %d scan plans", op, d-detPlans, s-scanPlans)
		}
	}
	if det.Overlay() == first {
		t.Fatal("the stream never compacted")
	}
	if detPlans == 0 || scanPlans == 0 {
		t.Fatalf("%d detector and %d scan plans: the count shows nothing", detPlans, scanPlans)
	}
}
