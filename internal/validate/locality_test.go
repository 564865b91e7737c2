package validate

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
)

// TestPinnedEnumerationStaysInBlock is the locality argument that lets a
// unit run without a data block. On random graphs — a heap snapshot, then
// an overlay patched by updates — for connected and two-component group
// patterns and every pivot vector of every group:
//
//   - every match the pinned enumeration yields lies in the unit's block,
//     the union of the pivots' radius neighbourhoods (fillBlock);
//   - the pinned enumeration equals the block-restricted one: the legacy
//     matcher's full match set on the mutable graph, kept where the pivots
//     map to the unit's candidates and every node lies in the block.
func TestPinnedEnumerationStaysInBlock(t *testing.T) {
	units := map[int]int{} // components -> units with at least one match
	for seed := int64(0); seed < 200; seed++ {
		g, set := randomWorkload(seed)
		checkLocality(t, fmt.Sprintf("seed %d heap", seed), g, g.Freeze(), set, units)
		ov := graph.NewOverlay(g)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 6; i++ {
			v, w := graph.NodeID(rng.Intn(ov.NumNodes())), graph.NodeID(rng.Intn(ov.NumNodes()))
			switch i % 3 {
			case 0:
				ov.AddNode([]string{"a", "b", "c"}[rng.Intn(3)], graph.Attrs{"p": "v0"})
			case 1:
				if v != w && !g.HasEdge(v, w, "e") {
					ov.MustAddEdge(v, w, "e")
				}
			default:
				ov.SetAttr(v, "q", "v1")
			}
		}
		checkLocality(t, fmt.Sprintf("seed %d overlay", seed), g, ov.Snapshot, set, units)
	}
	t.Logf("units with matches, by pivot arity: %v", units)
	if units[1] == 0 || units[2] == 0 {
		t.Fatalf("units with matches per component count %v: a pattern shape went unchecked", units)
	}
}

func checkLocality(t *testing.T, name string, g *graph.Graph, topo *graph.Snapshot, set *core.Set, units map[int]int) {
	t.Helper()
	m := match.NewMatcher(topo)
	block := graph.NewEpochSet(topo.NumNodes())
	for gi, grp := range buildGroups(set.Rules(), true) {
		var all []core.Match
		match.Enumerate(g, grp.q, match.Options{}, func(h core.Match) bool {
			all = append(all, slices.Clone(h))
			return true
		})
		pv := grp.pivot
		cands := make([][]graph.NodeID, pv.Arity())
		for i := range cands {
			cands[i] = pv.CandidatesIn(topo, i)
		}
		eachVector(cands, false, func(vec []graph.NodeID) bool {
			one := make([][]graph.NodeID, len(vec))
			for i, v := range vec {
				one[i] = []graph.NodeID{v}
			}
			fillBlock(block, topo, pv, one)
			pins := make([]match.Pin, len(vec))
			for i, z := range pv.Vars {
				pins[i] = match.Pin{Node: z, To: one[i]}
			}
			var got, want Report
			for _, h := range m.All(grp.q, match.Options{Pins: pins}) {
				for u, v := range h {
					if !block.Contains(v) {
						t.Fatalf("%s group %d unit %v: match %v puts node %d at %d, outside the block", name, gi, vec, h, u, v)
					}
				}
				got = append(got, Violation{Match: h})
			}
		next:
			for _, h := range all {
				for i, z := range pv.Vars {
					if h[z] != vec[i] {
						continue next
					}
				}
				for _, v := range h {
					if !block.Contains(v) {
						continue next
					}
				}
				want = append(want, Violation{Match: h})
			}
			if !got.Equal(want) {
				t.Fatalf("%s group %d unit %v: pinned enumeration yields %d matches, block-restricted %d", name, gi, vec, len(got), len(want))
			}
			if len(got) > 0 {
				units[pv.Arity()]++
			}
			return true
		})
	}
}
