package validate

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
)

// sideOf returns b's literal programs in rule order and its default
// grouping variant.
func sideOf(b *Bundle) ([]*core.LiteralProgram, []*ruleGroup) {
	var ps []*core.LiteralProgram
	for _, f := range b.Set().Rules() {
		ps = append(ps, b.Program(f))
	}
	_, gs, _ := b.ruleGroupsKeyed(Options{N: 2}.Normalized())
	return ps, gs
}

// sharesSide reports whether a and b hand out the same programs and the
// same grouping-variant slice; it fails t if they share only some.
func sharesSide(t *testing.T, a, b *Bundle) bool {
	t.Helper()
	pa, ga := sideOf(a)
	pb, gb := sideOf(b)
	progs, groups := slices.Equal(pa, pb), &ga[0] == &gb[0]
	for i := range pa {
		if (pa[i] == pb[i]) != progs {
			t.Fatalf("rule %d: program shared %v, rule 0's %v", i, pa[i] == pb[i], progs)
		}
	}
	if progs != groups {
		t.Fatalf("programs shared %v, grouping variant shared %v", progs, groups)
	}
	return progs
}

// TestRuleSideSharedAcrossVersions pins when successive bundles share
// their rule side: over one overlay's versions and across its compaction
// (same symbol table, names interned) they return the same programs and
// grouping variant; a direct write to a building graph freezes a fresh
// table, whose bundle lowers the rules anew. TestNeverSatisfiableRuleSkipped
// pins the other recompile: frozen table, then a patched view over it.
func TestRuleSideSharedAcrossVersions(t *testing.T) {
	g, set := randomWorkload(1)
	b0 := NewBundleOver(graph.NewOverlay(g).Snapshot, set, nil)

	g.AddNode("a", graph.Attrs{"p": "v1"}) // nothing wrote through the overlay: g is building
	ov := graph.NewOverlay(g)
	b1 := NewBundleOver(ov.Snapshot, set, b0)
	if b1.Topo().Syms() == b0.Topo().Syms() {
		t.Fatal("a direct write to a building graph must freeze a fresh symbol table")
	}
	if sharesSide(t, b0, b1) {
		t.Fatal("a bundle over a fresh table shares its predecessor's lowering")
	}

	ov.SetAttr(0, "p", "v1")
	id := ov.AddNode("a", graph.Attrs{"q": "v2"})
	ov.MustAddEdge(id, 0, "e")
	b2 := NewBundleOver(ov.Snapshot, set, b1)
	if !sharesSide(t, b1, b2) {
		t.Fatal("two versions of one overlay must share the rule side")
	}

	for range 1 << 14 {
		if graph.NewOverlay(g) != ov {
			break
		}
		ov.AddNode("b", graph.Attrs{"p": "v2"})
		ov.Settle()
	}
	flat := graph.NewOverlay(g)
	if flat == ov || flat.Syms() != ov.Syms() {
		t.Fatal("the overlay never compacted onto its own table")
	}
	b3 := NewBundleOver(flat.Snapshot, set, b2)
	if !sharesSide(t, b2, b3) {
		t.Fatal("a compaction keeps the table: the rule side must carry over")
	}
	sink := NewCollectSink(1)
	if err := DetVioB(context.Background(), b3, sink); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Report(), oracleVio(g, set); !got.Equal(want) {
		t.Fatalf("detVio on the compacted bundle: %d violations, the oracle %d", len(got), len(want))
	}
}

// scanWith is detVio on one slot matcher m of b's rule side.
func scanWith(b *Bundle, m *match.Matcher) Report {
	var out Report
	for _, f := range b.Set().Rules() {
		p := b.Program(f)
		for h := range m.Matches(f.Q, match.Options{Guard: p.Guard()}) {
			if p.IsViolation(b.Topo(), h) {
				out = append(out, Violation{Rule: f.Name, Match: slices.Clone(h)})
			}
		}
	}
	out.Sort()
	return out
}

// TestRuleSideSharedUnderRace runs repVal on a superseded bundle while the
// bundle that shares its rule side runs the same grouping variant and
// builds another, and a slot matcher that scanned the overlay's first
// version scans the current one; under -race it checks the shared side's
// locking and its plan cache.
func TestRuleSideSharedUnderRace(t *testing.T) {
	g, set := randomWorkload(3)
	ov := graph.NewOverlay(g)
	old := NewBundleOver(ov.Snapshot, set, nil)
	reused := old.Plans().Get(old.Topo())
	if got, want := scanWith(old, reused), oracleVio(g, set); !got.Equal(want) {
		t.Fatalf("the slot matcher at the first version: %d violations, the oracle %d", len(got), len(want))
	}
	ov.SetAttr(1, "q", "v0")
	cur := NewBundleOver(ov.Snapshot, set, old)
	want := oracleVio(g, set)
	opts := []Options{{N: 2, NoReduce: true}, {N: 2, NoReduce: true}, {N: 3, NoOptimize: true}}
	var wg sync.WaitGroup
	errs := make([]error, len(opts)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if !scanWith(cur, reused).Equal(want) { // the same view, one version on
			errs[len(opts)] = errors.New("the reused slot matcher's scan differs from the oracle")
		}
	}()
	for i, opt := range opts {
		b := cur
		if i == 0 {
			b = old
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := RepValB(context.Background(), b, opt, nil)
			if err == nil && !res.Violations.Equal(want) {
				err = errors.New("report differs from the oracle")
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil && i < len(opts) {
			t.Fatalf("%+v: %v", opts[i], err)
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !sharesSide(t, old, cur) {
		t.Fatal("the two bundles must share their rule side")
	}
}
