package session_test

import (
	"context"
	"fmt"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

// pairWorkload builds K disjoint A -[e]-> B pairs plus the rule
// Q: x:A -e-> y:B, {} -> x.val = y.val. The pattern is one component, so
// its plan holds one unit per range of the A class, each running one star
// test — which makes the planning-cache probe assertions exact.
func pairWorkload(k int) (*graph.Graph, *core.Set) {
	q := pattern.New()
	x := q.AddNode("x", "A")
	y := q.AddNode("y", "B")
	q.AddEdge(x, y, "e")
	phi := core.MustNew("same_val", q, nil, []core.Literal{core.VarEq("x", "val", "y", "val")})

	g := graph.New(2*k, k)
	for i := 0; i < k; i++ {
		v := fmt.Sprintf("v%d", i)
		bv := v
		if i%5 == 0 { // some violations so detection has work
			bv = v + "_off"
		}
		a := g.AddNode("A", graph.Attrs{"val": v})
		b := g.AddNode("B", graph.Attrs{"val": bv})
		g.MustAddEdge(a, b, "e")
	}
	return g, core.MustNewSet(phi)
}

// TestWarmDetectSkipsEstimation asserts the planning-cache contract for
// warm rounds: after the first Detect of a variant, repeated repVal and
// disVal rounds build no plan and rerun no star test (EstimationStats is
// the probe, mirroring the SnapshotBuilds pattern) — and disVal's first
// round plans its own assignment over the chunks repVal cut, reusing the
// survivors repVal's units stored.
func TestWarmDetectSkipsEstimation(t *testing.T) {
	ctx := context.Background()
	t.Cleanup(validate.SetChunkGranularity(4, 3)) // several units on a small class
	g, set := pairWorkload(12)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	rep := validate.Options{Engine: validate.EngineReplicated, N: 3}
	want, err := prep.Detect(ctx, rep)
	if err != nil {
		t.Fatal(err)
	}
	cold := prep.Bundle().EstimationStats()
	if cold.Builds != 1 || cold.Measured != want.Units || want.Units < 2 {
		t.Fatalf("cold round: %+v over %d units, want one plan and one star test per unit", cold, want.Units)
	}

	for round := 1; round <= 3; round++ {
		got, err := prep.Detect(ctx, rep)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Violations.Equal(want.Violations) {
			t.Fatalf("warm round %d diverged", round)
		}
		st := prep.Bundle().EstimationStats()
		if st.Builds != cold.Builds || st.Measured != cold.Measured {
			t.Fatalf("warm round %d planned or ran star tests: %+v vs cold %+v", round, st, cold)
		}
		if st.Reused != cold.Reused+round {
			t.Fatalf("warm round %d: Reused = %d, want %d", round, st.Reused, cold.Reused+round)
		}
	}

	// disVal with the same variant cuts no new chunks and runs no star
	// test: its ship costs come from the survivors repVal stored. Its warm
	// rounds skip planning entirely.
	dis := validate.Options{Engine: validate.EngineFragmented, N: 3}
	preDis := prep.Bundle().EstimationStats()
	if _, err := prep.Detect(ctx, dis); err != nil {
		t.Fatal(err)
	}
	st := prep.Bundle().EstimationStats()
	if st.Builds != preDis.Builds+1 || st.Measured != preDis.Measured {
		t.Fatalf("disVal's first round: %+v vs %+v, want one plan and no star test", st, preDis)
	}
	preWarm := st
	if _, err := prep.Detect(ctx, dis); err != nil {
		t.Fatal(err)
	}
	st = prep.Bundle().EstimationStats()
	if st.Builds != preWarm.Builds || st.Measured != preWarm.Measured || st.Reused != preWarm.Reused+1 {
		t.Fatalf("warm disVal round was not planning-free: %+v vs %+v", st, preWarm)
	}
}

// TestApplyDropsPlanAndMemo asserts the invalidation contract: every
// Session.Apply batch — topology or attribute-only — leaves a bundle with
// no plan and no stored survivors, so the next round plans afresh and
// reruns every unit's star test over the overlay's view, while no snapshot
// is rebuilt (the overlay path) and detection agrees with a cold run.
func TestApplyDropsPlanAndMemo(t *testing.T) {
	ctx := context.Background()
	t.Cleanup(validate.SetChunkGranularity(4, 3))
	g, set := pairWorkload(12)
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	rep := validate.Options{Engine: validate.EngineReplicated, N: 3}
	if _, err := prep.Detect(ctx, rep); err != nil {
		t.Fatal(err)
	}
	builds0 := g.SnapshotBuilds()
	before := prep.Bundle().EstimationStats()

	ids := sess.Apply(
		incremental.AddNode{Label: "A", Attrs: graph.Attrs{"val": "new"}},
		incremental.AddNode{Label: "B", Attrs: graph.Attrs{"val": "new"}},
	)
	var res *validate.Result
	for _, batch := range [][]incremental.Update{
		{incremental.AddEdge{From: ids[0], To: ids[1], Label: "e"}},
		{incremental.AddEdge{From: graph.NodeID(1), To: graph.NodeID(3), Label: "e"}},
		{incremental.SetAttr{Node: graph.NodeID(0), Attr: "val", Value: "rewritten"}},
	} {
		sess.Apply(batch...)
		if res, err = prep.Detect(ctx, rep); err != nil {
			t.Fatal(err)
		}
		st := prep.Bundle().EstimationStats()
		if st.Builds != before.Builds+1 || st.Measured != before.Measured+res.Units || st.Reused != before.Reused {
			t.Fatalf("%v: %+v over %d units after %+v, want one fresh plan and every star test rerun", batch, st, res.Units, before)
		}
		before = st
	}
	if builds := g.SnapshotBuilds(); builds != builds0 {
		t.Fatalf("Apply stream re-froze the graph: %d builds, want %d", builds, builds0)
	}
	if fresh := coldRepVal(t, g, set, validate.Options{N: 3}); !res.Violations.Equal(fresh.Violations) {
		t.Fatal("overlay-backed Detect diverged from cold repVal after Apply")
	}
}
