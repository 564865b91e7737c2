package validate

import (
	"context"
	"errors"
	"slices"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// TestWarmOpsMakeNoPlans: the rule side's plan cache misses only on a
// bundle's first run of an engine; every warm run of detVio and of repVal
// over a frozen fixture reads the plans its first run made, and still
// reports the oracle's set.
func TestWarmOpsMakeNoPlans(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 4; seed++ {
		g, set := randomWorkload(seed)
		want := oracleVio(g, set)
		b := NewBundle(g, set)
		runs := map[string]func() (Report, error){
			"detVio": func() (Report, error) {
				sink := NewCollectSink(1)
				err := DetVioB(ctx, b, sink)
				return sink.sorted(), err
			},
			"repVal": func() (Report, error) {
				res, err := RepValB(ctx, b, Options{N: 3, NoReduce: true}, nil)
				if res == nil {
					return nil, err
				}
				return res.Violations, err
			},
		}
		for _, name := range []string{"detVio", "repVal"} {
			var made int
			for op := range 4 {
				got, err := runs[name]()
				if err != nil {
					t.Fatalf("seed %d %s op %d: %v", seed, name, op, err)
				}
				if !got.Equal(want) {
					t.Fatalf("seed %d %s op %d: %d violations, the oracle %d", seed, name, op, len(got), len(want))
				}
				if n := b.Plans().Misses(); op == 0 {
					if made = n; n == 0 {
						t.Fatalf("seed %d %s: the first op made no plan", seed, name)
					}
				} else if n != made {
					t.Fatalf("seed %d %s: warm op %d made %d plans", seed, name, op, n-made)
				}
			}
		}
	}
}

// TestSharedPlanOneOrderAcrossVersions: two slot matchers of one rule side
// enumerate a pinned, striped unit in one order at two versions of an
// overlay, although the version in between flips the class sizes the plan
// was chosen from. A matcher that plans afresh at the later version (a
// fresh NewMatcher) orders the same matches differently, which shows that
// the fixture tells the two apart.
func TestSharedPlanOneOrderAcrossVersions(t *testing.T) {
	g := graph.New(0, 0)
	var ps, ss []graph.NodeID
	for range 3 {
		ps = append(ps, g.AddNode("P", nil))
	}
	for i := range 4 {
		s := g.AddNode("S", nil)
		ss = append(ss, s)
		g.MustAddEdge(ps[i%len(ps)], s, "e")
	}
	var bs, cs []graph.NodeID
	for range 3 {
		bs = append(bs, g.AddNode("B", nil))
	}
	for range 6 {
		cs = append(cs, g.AddNode("C", nil))
	}
	for _, s := range ss {
		for _, b := range bs {
			g.MustAddEdge(s, b, "f")
		}
		for _, c := range cs[:4] {
			g.MustAddEdge(s, c, "g")
		}
	}
	q := pattern.New()
	p, s := q.AddNode("p", "P"), q.AddNode("s", "S")
	b, c := q.AddNode("b", "B"), q.AddNode("c", "C")
	q.AddEdge(p, s, "e")
	q.AddEdge(s, b, "f")
	q.AddEdge(s, c, "g")
	set := core.MustNewSet(core.MustNew("r", q, nil, []core.Literal{core.VarEq("b", "x", "c", "x")}))
	opts := match.Options{
		Pins:      []match.Pin{{Node: p, To: ps}},
		StripeMod: 2, StripeRem: 1, StripeNode: s,
	}
	seq := func(m *match.Matcher) []core.Match { return m.All(q, opts) }

	ov := graph.NewOverlay(g)
	b1 := NewBundleOver(ov.Snapshot, set, nil)
	m1 := b1.Plans().Get(b1.Topo())
	first := seq(m1)
	for range 10 { // |B| grows past |C|: a fresh plan binds c before b
		ov.AddNode("B", nil)
	}
	b2 := NewBundleOver(ov.Snapshot, set, b1)
	m2 := b2.Plans().Get(b2.Topo())
	if m2 == m1 {
		t.Fatal("the second slot must hold a matcher of its own")
	}
	if len(first) < 4 {
		t.Fatalf("%d matches: the unit must order several", len(first))
	}
	for name, got := range map[string][]core.Match{"the second slot": seq(m2), "the first slot": seq(m1)} {
		if !slices.EqualFunc(got, first, slices.Equal) {
			t.Fatalf("at the later version %s enumerates %v, the first version %v", name, got, first)
		}
	}
	if fresh := seq(match.NewMatcher(ov)); slices.EqualFunc(fresh, first, slices.Equal) {
		t.Fatal("a plan made at the later version orders the unit as the first one did: the fixture shows nothing")
	}
}

// TestPanickedMatcherNeverReused: a repVal run whose slots die — one at a
// unit's start, one mid-enumeration with a match bound (an emission panics
// inside the matcher's yield) — leaves the rule side's matcher pool clean,
// so a fault-free run on the same bundle reports the oracle's set. A
// matcher that unwound by panic holds the bound match's nodes in its
// used-set; reused, it would skip them.
func TestPanickedMatcherNeverReused(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		for name, build := range semiJoinShapes(seed) {
			g, set := build()
			want := oracleVio(g, set)
			b := NewBundle(g, set)
			plan := NewFaultPlan(seed).KillWorker(0, 0).PanicAt(3)
			InjectSlots(t, plan)
			res, err := RepValB(ctx, b, Options{N: 3}, nil)
			if err != nil && !errors.Is(err, ErrPartial) {
				t.Fatalf("%s seed %d: faulty run: %v", name, seed, err)
			}
			if res.Completeness.WorkerDeaths != 2 {
				t.Fatalf("%s seed %d: %v killed %d slots, want 2", name, seed, plan, res.Completeness.WorkerDeaths)
			}
			InjectSlots(t, nil) // the clean runs: an empty plan
			for op := range 2 {
				res, err := RepValB(ctx, b, Options{N: 3}, nil)
				if err != nil {
					t.Fatalf("%s seed %d: clean run %d: %v", name, seed, op, err)
				}
				if !res.Violations.Equal(want) {
					t.Fatalf("%s seed %d: clean run %d after the faults: %d violations, the oracle %d", name, seed, op, len(res.Violations), len(want))
				}
			}
		}
	}
}
