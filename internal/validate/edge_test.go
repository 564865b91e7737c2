package validate

import (
	"testing"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Edge-case coverage for the parallel engines beyond the main equivalence
// suite: degenerate graphs, worker-count mismatches, single-node
// patterns, wildcard-heavy rules, and option extremes.

func singleNodeRule() *core.Set {
	q := pattern.New()
	q.AddNode("x", "acct")
	return core.MustNewSet(core.MustNew("fake", q,
		[]core.Literal{core.Const("x", "is_fake", "true")},
		[]core.Literal{core.Const("x", "flagged", "true")}))
}

func TestEnginesOnEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	set := singleNodeRule()
	if len(detVio(g, set)) != 0 {
		t.Fatal("empty graph has no violations")
	}
	if res := repVal(g, set, Options{N: 4}); len(res.Violations) != 0 || res.Units != 0 {
		t.Error("repVal on empty graph must be empty")
	}
	frag := fragment.Partition(g, 4, fragment.Hash)
	if res := disVal(g, frag, set, Options{N: 4}); len(res.Violations) != 0 {
		t.Error("disVal on empty graph must be empty")
	}
}

func TestEnginesOnSingleNodeGraph(t *testing.T) {
	g := graph.New(1, 0)
	g.AddNode("acct", graph.Attrs{"is_fake": "true"}) // flagged missing -> violation
	set := singleNodeRule()
	want := detVio(g, set)
	if len(want) != 1 {
		t.Fatalf("want 1 violation, got %d", len(want))
	}
	if !repVal(g, set, Options{N: 8}).Violations.Equal(want) {
		t.Error("repVal single-node mismatch")
	}
	frag := fragment.Partition(g, 3, fragment.Hash)
	if !disVal(g, frag, set, Options{N: 3}).Violations.Equal(want) {
		t.Error("disVal single-node mismatch")
	}
}

func TestDisValWorkerCountClampsToFragments(t *testing.T) {
	g := graph.New(0, 0)
	g.AddNode("acct", graph.Attrs{"is_fake": "true"})
	g.AddNode("acct", graph.Attrs{"is_fake": "false"})
	set := singleNodeRule()
	frag := fragment.Partition(g, 2, fragment.Hash)
	// Requesting more workers than fragments must not panic or lose work.
	res := disVal(g, frag, set, Options{N: 16})
	if len(res.Violations) != 1 {
		t.Errorf("violations = %d, want 1", len(res.Violations))
	}
}

func TestPatternLargerThanGraph(t *testing.T) {
	g := graph.New(0, 0)
	g.AddNode("a", nil)
	q := pattern.New()
	q.AddNode("x", "a")
	q.AddNode("y", "a")
	q.AddNode("z", "a")
	set := core.MustNewSet(core.MustNew("big", q, nil,
		[]core.Literal{core.Const("x", "p", "1")}))
	if len(detVio(g, set)) != 0 {
		t.Error("pattern larger than graph cannot match")
	}
	if len(repVal(g, set, Options{N: 2}).Violations) != 0 {
		t.Error("repVal must agree")
	}
}

func TestWildcardEverythingRule(t *testing.T) {
	// (Q[x:_], ∅ → x.must = "have"): every node is a violation unless it
	// carries the attribute.
	q := pattern.New()
	q.AddNode("x", pattern.Wildcard)
	set := core.MustNewSet(core.MustNew("w", q, nil,
		[]core.Literal{core.Const("x", "must", "have")}))
	g := graph.New(0, 0)
	g.AddNode("a", graph.Attrs{"must": "have"})
	g.AddNode("b", nil)
	g.AddNode("c", graph.Attrs{"must": "not"})
	want := detVio(g, set)
	if len(want) != 2 {
		t.Fatalf("want 2 violations, got %d", len(want))
	}
	if !repVal(g, set, Options{N: 2}).Violations.Equal(want) {
		t.Error("repVal wildcard mismatch")
	}
	frag := fragment.Partition(g, 2, fragment.Hash)
	if !disVal(g, frag, set, Options{N: 2}).Violations.Equal(want) {
		t.Error("disVal wildcard mismatch")
	}
}

// TestOneChunkPerGroup: at the coarsest granularity every group is one
// chunk over its whole class, and the violations do not move.
func TestOneChunkPerGroup(t *testing.T) {
	g := graph.New(0, 0)
	for i := 0; i < 6; i++ {
		attrs := graph.Attrs{"is_fake": "false", "flagged": "x"}
		if i%2 == 0 {
			attrs = graph.Attrs{"is_fake": "true"} // violations
		}
		g.AddNode("acct", attrs)
	}
	set := singleNodeRule()
	want := detVio(g, set)
	SetGranularity(t, 1, 1<<30)
	res := repVal(g, set, Options{N: 4})
	if !res.Violations.Equal(want) {
		t.Errorf("one chunk: %d violations, want %d", len(res.Violations), len(want))
	}
	if res.Units != res.Groups {
		t.Errorf("%d units for %d groups, want one each", res.Units, res.Groups)
	}
}

func TestThreeComponentPattern(t *testing.T) {
	// k = 3 components exercises the generic cross-product path.
	q := pattern.New()
	q.AddNode("x", "a")
	q.AddNode("y", "b")
	q.AddNode("z", "c")
	set := core.MustNewSet(core.MustNew("tri", q,
		[]core.Literal{core.VarEq("x", "v", "y", "v")},
		[]core.Literal{core.VarEq("y", "v", "z", "v")}))

	g := graph.New(0, 0)
	g.AddNode("a", graph.Attrs{"v": "1"})
	g.AddNode("b", graph.Attrs{"v": "1"})
	g.AddNode("c", graph.Attrs{"v": "2"}) // violates via transitive triple
	g.AddNode("c", graph.Attrs{"v": "1"}) // consistent triple
	want := detVio(g, set)
	if len(want) != 1 {
		t.Fatalf("want 1 violation, got %d", len(want))
	}
	if !repVal(g, set, Options{N: 3, NoReduce: true}).Violations.Equal(want) {
		t.Error("repVal k=3 mismatch")
	}
	frag := fragment.Partition(g, 2, fragment.Hash)
	if !disVal(g, frag, set, Options{N: 2, NoReduce: true}).Violations.Equal(want) {
		t.Error("disVal k=3 mismatch")
	}
}

func TestResultModeledTimeComposition(t *testing.T) {
	g := graph.New(0, 0)
	for i := 0; i < 20; i++ {
		g.AddNode("acct", graph.Attrs{"is_fake": "true"})
	}
	res := repVal(g, singleNodeRule(), Options{N: 4})
	if res.ModeledTime() != res.EstimateSpan+res.DetectSpan+res.ModeledComm() {
		t.Error("ModeledTime must compose from spans and comm")
	}
	if res.ModeledTime() <= 0 {
		t.Error("modeled time must be positive on non-empty work")
	}
}
