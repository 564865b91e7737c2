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
// Q: x:A -e-> y:B, {} -> x.val = y.val. The pattern is one component of
// radius 1, so workload estimation measures exactly one 1-hop block per
// pivot candidate — which makes the estimation-cache probe assertions
// exact: an isolated Apply delta must re-measure exactly the blocks it
// touched.
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

// TestWarmDetectSkipsEstimation asserts the estimation-cache contract for
// warm rounds: after the first Detect of a variant, repeated repVal and
// disVal rounds perform zero estimation passes and zero block-size
// traversals (EstimationStats is the probe, mirroring the SnapshotBuilds
// pattern) — and disVal's first round shares the base estimation repVal
// already built.
func TestWarmDetectSkipsEstimation(t *testing.T) {
	ctx := context.Background()
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
	if cold.Builds == 0 || cold.Measured == 0 {
		t.Fatalf("cold round recorded no estimation work: %+v", cold)
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
			t.Fatalf("warm round %d ran an estimation pass: %+v vs cold %+v", round, st, cold)
		}
		if st.Reused != cold.Reused+round {
			t.Fatalf("warm round %d: Reused = %d, want %d", round, st.Reused, cold.Reused+round)
		}
	}

	// disVal with the same variant shares the base estimation: its first
	// round attaches ship costs but measures no new blocks, and its warm
	// rounds skip the phase entirely.
	dis := validate.Options{Engine: validate.EngineFragmented, N: 3}
	preDis := prep.Bundle().EstimationStats()
	if _, err := prep.Detect(ctx, dis); err != nil {
		t.Fatal(err)
	}
	st := prep.Bundle().EstimationStats()
	if st.Builds != preDis.Builds || st.Measured != preDis.Measured {
		t.Fatalf("disVal re-ran the shared base estimation: %+v vs %+v", st, preDis)
	}
	preWarm := st
	if _, err := prep.Detect(ctx, dis); err != nil {
		t.Fatal(err)
	}
	st = prep.Bundle().EstimationStats()
	if st.Builds != preWarm.Builds || st.Measured != preWarm.Measured || st.Reused != preWarm.Reused+1 {
		t.Fatalf("warm disVal round was not estimation-free: %+v vs %+v", st, preWarm)
	}
}

// TestApplyInvalidatesOnlyTouchedBlocks asserts the delta-proportional
// invalidation contract: a Session.Apply batch forces one new estimation
// pass, but only the blocks within radius of the touched nodes are
// re-traversed — the rest of the workload is served from the inherited
// size tables, and no snapshot is rebuilt (the overlay path). The second
// case adds a single-node rule on A, so every A node holds a radius-0 entry
// beside its radius-1 one: the tables are per radius, and an update one hop
// away must clear the latter and keep the former.
func TestApplyInvalidatesOnlyTouchedBlocks(t *testing.T) {
	lone := pattern.New()
	lone.AddNode("x", "A")
	loneA := core.MustNew("lone_a", lone, nil, []core.Literal{core.Const("x", "val", "v0")})
	for _, tc := range []struct {
		name      string
		extra     []*core.GFD
		newPair   int // blocks re-measured after inserting an isolated pair
		crossEdge int // after an edge between two existing pairs
	}{
		// The only pivot candidate within radius 1 of the new pair is its
		// own A node; the cross-pair edge reaches one A node per pair.
		{name: "one radius", newPair: 1, crossEdge: 2},
		// The new A node is measured at both radii. The cross-pair edge
		// touches two B nodes: one hop from two A nodes, whose radius-1
		// entries go stale while their radius-0 entries do not.
		{name: "two radii", extra: []*core.GFD{loneA}, newPair: 2, crossEdge: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			g, set := pairWorkload(12)
			set = core.MustNewSet(append(set.Rules(), tc.extra...)...)
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
			st0 := prep.Bundle().EstimationStats()
			if want := 12 * (1 + len(tc.extra)); st0.Measured != want {
				t.Fatalf("cold pass measured %d blocks, want %d (one per A node and radius)", st0.Measured, want)
			}

			// An isolated new pair, whose nodes lie beyond the tables the
			// cold pass sized.
			ids := sess.Apply(
				incremental.AddNode{Label: "A", Attrs: graph.Attrs{"val": "new"}},
				incremental.AddNode{Label: "B", Attrs: graph.Attrs{"val": "new"}},
			)
			sess.Apply(incremental.AddEdge{From: ids[0], To: ids[1], Label: "e"})
			if _, err := prep.Detect(ctx, rep); err != nil {
				t.Fatal(err)
			}
			st1 := prep.Bundle().EstimationStats()
			if st1.Builds != st0.Builds+1 {
				t.Fatalf("Apply round: Builds = %d, want %d (one fresh pass)", st1.Builds, st0.Builds+1)
			}
			if st1.Measured != st0.Measured+tc.newPair {
				t.Fatalf("Apply of an isolated pair re-measured %d blocks, want exactly %d",
					st1.Measured-st0.Measured, tc.newPair)
			}

			// An edge between the B nodes of two existing pairs.
			sess.Apply(incremental.AddEdge{From: graph.NodeID(1), To: graph.NodeID(3), Label: "e"})
			if _, err := prep.Detect(ctx, rep); err != nil {
				t.Fatal(err)
			}
			st2 := prep.Bundle().EstimationStats()
			if st2.Measured != st1.Measured+tc.crossEdge {
				t.Fatalf("cross-pair edge re-measured %d blocks, want exactly %d", st2.Measured-st1.Measured, tc.crossEdge)
			}

			// An attribute write touches no topology: the next pass
			// re-assembles units (values shifted) but re-traverses nothing.
			sess.Apply(incremental.SetAttr{Node: graph.NodeID(0), Attr: "val", Value: "rewritten"})
			if _, err := prep.Detect(ctx, rep); err != nil {
				t.Fatal(err)
			}
			st3 := prep.Bundle().EstimationStats()
			if st3.Builds != st2.Builds+1 || st3.Measured != st2.Measured {
				t.Fatalf("attribute-only Apply: stats %+v, want one pass and zero traversals over %+v", st3, st2)
			}

			// The whole update stream stayed on the overlay path — zero
			// snapshot rebuilds — and detection still agrees with a cold
			// run on the mutated graph.
			if builds := g.SnapshotBuilds(); builds != builds0 {
				t.Fatalf("Apply stream re-froze the graph: %d builds, want %d", builds, builds0)
			}
			warm, err := prep.Detect(ctx, rep)
			if err != nil {
				t.Fatal(err)
			}
			fresh := coldRepVal(t, g, set, validate.Options{N: 3})
			if !warm.Violations.Equal(fresh.Violations) {
				t.Fatalf("overlay-backed warm Detect diverged from cold repVal after Apply")
			}
		})
	}
}
