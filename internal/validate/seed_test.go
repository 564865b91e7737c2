package validate

import (
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// seededKB is a gen-built KB workload whose mined rules each carry a
// constant X literal, with noise so that some of them fire, plus a rule
// whose constant no node holds and a symmetric two-component rule.
func seededKB(t *testing.T) (*graph.Graph, *core.Set) {
	t.Helper()
	g := gen.DBpediaLike(gen.DatasetConfig{Scale: 400, Seed: 5})
	rules := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, Seed: 6}).Rules()
	gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: 7})
	gen.InjectTargeted(g, core.MustNewSet(rules...), 0.1, 8)
	for _, f := range rules {
		if seedOf(f).node < 0 {
			t.Fatalf("mined rule %s has no constant X; the workload seeds nothing", f.Name)
		}
	}
	never := pattern.New()
	never.AddEdge(never.AddNode("p", "person"), never.AddNode("c", "city"), "born_in")
	twins := pattern.New()
	twins.AddNode("a", "country")
	twins.AddNode("b", "country")
	return g, core.MustNewSet(append(rules,
		core.MustNew("seed_never", never, []core.Literal{core.Const("c", "val", "never_interned")},
			[]core.Literal{core.Const("p", "val", "x")}),
		core.MustNew("seed_twins", twins, []core.Literal{core.Const("a", "val", "country_0")},
			[]core.Literal{core.VarEq("a", "val", "b", "val")}))...)
}

// planUnits is the number of pivot vectors opt's variant enumerates on b:
// the per-candidate units of the paper's model, which a chunk plan's units
// hold in ranges.
func planUnits(t *testing.T, b *Bundle, opt Options) int {
	t.Helper()
	opt.SplitThreshold = -1
	units, err := b.PlanVectors(opt)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// TestSeededPivotUnits: a group whose every member has a constant X
// literal on one node pivots there, and its units are the class members
// that carry one of the constants and have the pivot's star — on a KB set,
// Σ of the filtered candidate lists, far below the class-sized set. A
// constant no node holds seeds no unit and loses no violation; symmetric
// two-component patterns keep unseeded candidates. TestMetamorphicVio runs every engine on the workload.
func TestSeededPivotUnits(t *testing.T) {
	g, set := seededKB(t)
	b := NewBundle(g, set)
	opt := Options{N: 2, NoReduce: true}.Normalized()
	_, groups, _ := b.ruleGroupsKeyed(opt)

	// Units = Σ candidate list sizes, read through the mutable graph's
	// strings; the symmetric pair is the list's unordered pairs.
	want, classSized := 0, 0
	syms := b.topo.Syms()
	for _, grp := range groups {
		pv := grp.pivot
		if pv.Symmetric() {
			if pv.Seeds(0) != nil || pv.Seeds(1) != nil {
				t.Fatalf("symmetric group %s was seeded", grp.q)
			}
			n := len(oracleCandidates(g, syms, pv, 0))
			want += n * (n - 1) / 2
			classSized += n * (n - 1) / 2
			continue
		}
		if pv.Arity() != 1 || pv.Seeds(0) == nil {
			t.Fatalf("group %s: arity %d, seeds %v; want one seeded component", grp.q, pv.Arity(), pv.Seeds(0))
		}
		n := len(oracleCandidates(g, syms, pv, 0))
		if grp.deps[0].rule.Name == "seed_never" && n != 0 {
			t.Fatalf("never-interned constant admits %d candidates", n)
		}
		want += n
		classSized += pv.ClassLen(b.topo, 0)
	}
	got := planUnits(t, b, opt)
	t.Logf("%d groups: %d seeded units, %d class-sized", len(groups), got, classSized)
	if got != want {
		t.Fatalf("%d units, want Σ candidate list sizes %d", got, want)
	}
	if 4*got > classSized {
		t.Fatalf("seeding kept %d of %d class-sized units", got, classSized)
	}
}
