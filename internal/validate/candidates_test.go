package validate

import (
	"fmt"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/workload"
)

// starShapes are the pivot stars CandidatesIn treats apart, over
// randomWorkload's vocabulary (labels a, b, c; edge labels e, f). Node 0 is
// the pivot of every single-component shape.
func starShapes() map[string]*pattern.Pattern {
	type edge struct {
		from  int
		label string
		to    int
	}
	build := func(labels []string, edges ...edge) *pattern.Pattern {
		q := pattern.New()
		for i, l := range labels {
			q.AddNode(pattern.Var(fmt.Sprintf("x%d", i)), l)
		}
		for _, e := range edges {
			q.AddEdge(e.from, e.to, e.label)
		}
		return q
	}
	return map[string]*pattern.Pattern{
		"wildcard_neighbour": build([]string{"a", pattern.Wildcard, "b"}, edge{0, "e", 1}, edge{0, "f", 2}),
		"wildcard_edge":      build([]string{"a", "b", "c"}, edge{0, pattern.Wildcard, 1}, edge{0, "e", 2}),
		"parallel":           build([]string{"a", "b"}, edge{0, "e", 1}, edge{0, "f", 1}),
		"both_ways":          build([]string{"b", "c"}, edge{0, "e", 1}, edge{1, "f", 0}),
		"self_loop":          build([]string{"a", "b"}, edge{0, "e", 0}, edge{0, "f", 1}),
		"symmetric":          build([]string{"a", "b", "a", "b"}, edge{0, "e", 1}, edge{2, "e", 3}),
	}
}

// TestCandidatesDropNoMatch: on randomWorkload graphs, a class member that
// holds one of its component's seeds yet fails Candidates has no match
// with the pivot pinned there (unguarded) — for the random rule patterns,
// for every star shape of starShapes, and for a seeded pivot.
func TestCandidatesDropNoMatch(t *testing.T) {
	rejected := map[string]int{}
	for seed := int64(0); seed < 60; seed++ {
		g, set := randomWorkload(seed)
		snap := g.Freeze()
		m := match.NewMatcher(snap)
		pivots := map[string]*workload.Pivot{}
		for _, f := range set.Rules() {
			pivots["random_"+f.Name] = workload.ComputePivot(f.Q)
		}
		for name, q := range starShapes() {
			pivots[name] = workload.ComputePivot(q)
		}
		seeded := workload.ComputePivot(starShapes()["parallel"])
		seeded.Seed(0)
		pivots["seeded"] = seeded
		syms := snap.Syms()
		p := syms.Lookup("p")
		seeds := []graph.AttrPair{{Name: p, Val: syms.Lookup("v0")}, {Name: p, Val: syms.Lookup("v1")}}
		for name, pv := range pivots {
			lp := pv.Lower(syms, func(int) []graph.AttrPair { return seeds })
			for i, z := range pv.Vars {
				kept := lp.Candidates(snap, i, workload.Range{Lo: 0, Hi: lp.ClassLen(snap, i)})
				label, seeds := pv.Q.Nodes[z].Label, lp.Seeds(i)
				for v := range graph.NodeID(g.NumNodes()) {
					if !pattern.LabelMatches(label, g.Label(v)) || slices.Contains(kept, v) {
						continue
					}
					if val, ok := g.Attr(v, "p"); seeds != nil && (!ok || val != "v0" && val != "v1") {
						continue
					}
					rejected[name]++
					if len(m.All(pv.Q, match.Options{Limit: 1, Pins: []match.Pin{{Node: z, To: []graph.NodeID{v}}}})) > 0 {
						t.Fatalf("seed %d, %s: node %d has a match with pivot %d pinned there, yet CandidatesIn rejects it", seed, name, v, z)
					}
				}
			}
		}
	}
	for name := range starShapes() {
		if rejected[name] == 0 {
			t.Errorf("%s: the filter rejected no node; its case is vacuous", name)
		}
	}
	if rejected["seeded"] == 0 {
		t.Error("seeded: the filter rejected no node; its case is vacuous")
	}
}

// TestCandidateListsFollowTheStar: two groups pivot on one label class with
// different stars, so their candidate lists differ. repVal and disVal must
// still report the oracle's violations; a list shared by label would filter
// the second group by the first's star and drop its violations.
func TestCandidateListsFollowTheStar(t *testing.T) {
	edge := func(l, nl string) *pattern.Pattern {
		q := pattern.New()
		q.AddEdge(q.AddNode("x", "a"), q.AddNode("y", nl), l)
		return q
	}
	y := []core.Literal{core.Const("x", "p", "never")}
	set := core.MustNewSet(core.MustNew("along_e", edge("e", "b"), nil, y), core.MustNew("along_f", edge("f", "c"), nil, y))
	found := 0
	for seed := int64(0); seed < 20; seed++ {
		g, _ := randomWorkload(seed)
		want := oracleVio(g, set)
		found += len(want)
		for _, opt := range []Options{{N: 2, NoReduce: true}, {N: 3, NoOptimize: true}} {
			if got := repVal(g, set, opt).Violations; !got.Equal(want) {
				t.Fatalf("seed %d: repVal(%+v) reports %d violations, oracle %d", seed, opt, len(got), len(want))
			}
			frag := fragment.Partition(g, opt.N, fragment.Hash)
			if got := disVal(g, frag, set, opt).Violations; !got.Equal(want) {
				t.Fatalf("seed %d: disVal(%+v) reports %d violations, oracle %d", seed, opt, len(got), len(want))
			}
		}
	}
	if found == 0 {
		t.Fatal("the workloads have no violations; the differential is vacuous")
	}
}
