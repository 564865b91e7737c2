package validate_test

import (
	"os"
	"slices"
	"strings"
	"testing"

	"gfd/internal/core"
	"gfd/internal/exp"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// wantSeeds is the oracle of a seeded group's lowered seeds, built from its
// member rules' strings: each member's constant X literal of least
// eccentricity (the first in X order on a tie), looked up in syms, without
// repeats, leaving out the members whose X names something syms never
// interned (they can never fire). The node of the first member's literal is
// where the group pivots; -1 when it has none, and nil seeds when a member
// past the 63rd can fire, since a guard tracks no more.
func wantSeeds(syms *graph.Symbols, rules []*core.GFD) (int, []graph.AttrPair) {
	node := -1
	seeds := []graph.AttrPair{}
	for k, f := range rules {
		var lit *core.Literal
		z, best := -1, 0
		for i, l := range f.X {
			if l.Kind != core.Constant {
				continue
			}
			x, _ := f.Q.VarIndex(l.X)
			if ecc := f.Q.Eccentricity(x); z < 0 || ecc < best {
				lit, z, best = &f.X[i], x, ecc
			}
		}
		if k == 0 {
			node = z
		}
		dead := false
		for _, l := range f.X {
			names := []string{l.A, l.B}
			if l.Kind == core.Constant {
				names[1] = l.C
			}
			for _, n := range names {
				dead = dead || syms.Lookup(n) == graph.NoSym
			}
		}
		if dead {
			continue
		}
		if k >= 63 || lit == nil {
			return node, nil
		}
		kv := graph.AttrPair{Name: syms.Lookup(lit.A), Val: syms.Lookup(lit.C)}
		if !slices.Contains(seeds, kv) {
			seeds = append(seeds, kv)
		}
	}
	return node, seeds
}

// TestLoweredSeedsMatchRuleStrings: every group's lowered pivot seeds equal
// the oracle built from its members' rule strings (wantSeeds), on its
// seeded component and nowhere else, for the seeded KB workload and the
// benchmark's frozen KB rule files (kb_mined9 beside Fig. 7's rules, and
// yago12), grouped and ungrouped. Symmetric patterns are never seeded.
func TestLoweredSeedsMatchRuleStrings(t *testing.T) {
	read := func(name string) []*core.GFD {
		text, err := os.ReadFile("../../benchmark/rules/" + name)
		if err != nil {
			t.Fatal(err)
		}
		set, err := core.ParseRules(strings.NewReader(string(text)))
		if err != nil {
			t.Fatal(err)
		}
		return set.Rules()
	}
	sg, sset := validate.SeededKB(t)
	kb := gen.DBpediaLike(gen.DatasetConfig{Scale: 600, Seed: 1})
	yago := gen.YAGO2Like(gen.DatasetConfig{Scale: 1000, Seed: 1})
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		set  *core.Set
	}{
		{"seeded KB", sg, sset},
		{"kb_mined9 + Fig. 7", kb, core.MustNewSet(append(exp.Fig7Rules().Rules(), read("kb_mined9.gfd")...)...)},
		{"yago12", yago, core.MustNewSet(read("yago12.gfd")...)},
	} {
		b := validate.NewBundle(tc.g, tc.set)
		syms := b.Topo().Syms()
		seeded := 0
		for _, noOpt := range []bool{false, true} {
			for _, gs := range b.GroupShapes(validate.Options{NoOptimize: noOpt}) {
				node, want := wantSeeds(syms, gs.Rules)
				if gs.Pivot.Symmetric() {
					node = -1
				}
				for i, z := range gs.Pivots {
					if z != node {
						if got := gs.Seeds[i]; got != nil {
							t.Fatalf("%s: group %s component %d is unseeded, yet seeds %v", tc.name, gs.Q, i, got)
						}
						continue
					}
					seeded++
					if got := gs.Seeds[i]; !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("%s: group %s (%d rules) seeds %v, want %v", tc.name, gs.Q, len(gs.Rules), got, want)
					}
				}
			}
		}
		if seeded == 0 {
			t.Fatalf("%s: no group is seeded; the comparison is vacuous", tc.name)
		}
		t.Logf("%s: %d seeded groups compared", tc.name, seeded)
	}
}
