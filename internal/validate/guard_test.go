package validate

import (
	"context"
	"slices"
	"strings"
	"testing"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
)

// yagoCapitalPair is the pair of yago12 rules (benchmark/rules/yago12.gfd)
// that share one pattern with different X. Their constants sit on
// different nodes (x3 and x2), so each seeds its own pivot and the pair
// splits into two groups.
const yagoCapitalPair = `
gfd y_capital_country {
  node x0 person
  node x1 city
  node x2 country
  node x3 city
  edge x0 born_in x1
  edge x1 located_in x2
  edge x2 capital x3
  when x3.val = "city_0"
  then x2.val = "country_0"
}

gfd y_country_capital {
  node x0 person
  node x1 city
  node x2 country
  node x3 city
  edge x0 born_in x1
  edge x1 located_in x2
  edge x2 capital x3
  when x2.val = "country_1"
  then x3.val = "city_1"
}
`

// sameSeedPair is two rules of that pattern whose constants both sit on
// x2.val: the multi-query grouping keeps them in one group, whose guard has
// one member per rule and whose pivot filter holds both constants.
const sameSeedPair = `
gfd y_country_capital {
  node x0 person
  node x1 city
  node x2 country
  node x3 city
  edge x0 born_in x1
  edge x1 located_in x2
  edge x2 capital x3
  when x2.val = "country_1"
  then x3.val = "city_1"
}

gfd y_country_capital9 {
  node a person
  node b city
  node c country
  node d city
  edge a born_in b
  edge b located_in c
  edge c capital d
  when c.val = "country_9"
  then d.val = "city_9"
}
`

// capitalChain adds person → city → country → capital city with the
// country's and the capital's values, returning the four nodes.
func capitalChain(g *graph.Graph, country, capital string) core.Match {
	p := g.AddNode("person", graph.Attrs{"val": "person_0"})
	c := g.AddNode("city", graph.Attrs{"val": "city_5"})
	k := g.AddNode("country", graph.Attrs{"val": country})
	x := g.AddNode("city", graph.Attrs{"val": capital})
	g.MustAddEdge(p, c, "born_in")
	g.MustAddEdge(c, k, "located_in")
	g.MustAddEdge(k, x, "capital")
	return core.Match{p, c, k, x}
}

// TestGroupGuardKeepsSingleMemberMatches: a group prunes a prefix only
// once every member's X has failed on it. In each fixture every violating
// chain satisfies exactly one rule's X, so a guard that pruned on the
// first failed literal of any member would lose one. The pair seeded on
// different nodes splits into two single-member groups; the pair seeded on
// one node shares a group with a two-member guard and a two-value filter.
func TestGroupGuardKeepsSingleMemberMatches(t *testing.T) {
	for _, tc := range []struct {
		name        string
		rules       string
		first, next [2]string // the chain each rule alone flags: country, capital
		groups      int
	}{
		{"split", yagoCapitalPair, [2]string{"country_9", "city_0"}, [2]string{"country_1", "city_7"}, 2},
		{"shared", sameSeedPair, [2]string{"country_1", "city_7"}, [2]string{"country_9", "city_7"}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, err := core.ParseRules(strings.NewReader(tc.rules))
			if err != nil {
				t.Fatal(err)
			}
			rules := set.Rules()
			g := graph.New(0, 0)
			onlyFirst := capitalChain(g, tc.first[0], tc.first[1])
			onlySecond := capitalChain(g, tc.next[0], tc.next[1])
			capitalChain(g, "country_5", "city_7") // neither X: never reported
			want := Report{
				{Rule: rules[0].Name, Match: onlyFirst},
				{Rule: rules[1].Name, Match: onlySecond},
			}
			want.Sort()
			if got := oracleVio(g, set); !got.Equal(want) {
				t.Fatalf("oracle disagrees with the planted violations: %v", got)
			}

			b := NewBundle(g, set)
			opt := Options{N: 2, NoReduce: true}.Normalized()
			_, groups, _ := b.ruleGroupsKeyed(opt)
			if len(groups) != tc.groups {
				t.Fatalf("%d groups, want %d", len(groups), tc.groups)
			}
			if tc.groups == 1 {
				grp := groups[0]
				if grp.guard.Live() != 0b11 {
					t.Fatalf("shared group guard has members %b, want 0b11", grp.guard.Live())
				}
				if got := seedNames(b.Topo().Syms(), grp.pivot.Seeds(0)); !slices.Equal(got, []string{"val=country_1", "val=country_9"}) {
					t.Fatalf("shared group seeds %v, want val ∈ {country_1, country_9}", got)
				}
				// The group's enumeration itself keeps both single-member
				// matches and drops the chain no member's X holds on.
				if n := len(match.NewMatcher(b.Topo()).All(grp.q, match.Options{Guard: grp.guard})); n != 2 {
					t.Fatalf("group guard admits %d matches, want 2", n)
				}
			}

			if got := detVio(g, set); !got.Equal(want) {
				t.Fatalf("detVio: %v", got)
			}
			for _, o := range []Options{{N: 2, NoReduce: true}, {N: 1, NoReduce: true, SplitThreshold: 1}} {
				res := repVal(g, set, o)
				if got := res.Violations; !got.Equal(want) {
					t.Fatalf("repVal(%+v): %v", o, got)
				}
				if units := pivotVectors(t, g, set, o); res.Groups != tc.groups || units != 2 {
					t.Fatalf("repVal(%+v): %d groups, %d pivot vectors; want %d groups and one pivot per seeded country", o, res.Groups, units, tc.groups)
				}
				if got := disVal(g, fragment.Partition(g, o.N, fragment.Hash), set, o).Violations; !got.Equal(want) {
					t.Fatalf("disVal(%+v): %v", o, got)
				}
			}
		})
	}
}

// TestNeverSatisfiableRuleSkipped: a rule whose X names a constant the
// frozen table never interned can never fire, so its guard is dead and no
// engine enumerates it. Once an overlay interns the constant, the next
// bundle compiles its own program and the rule is live again.
func TestNeverSatisfiableRuleSkipped(t *testing.T) {
	set, err := core.ParseRules(strings.NewReader(`
gfd r {
  node x person
  node y city
  edge x born_in y
  when x.val = "zzz"
  then y.val = "city_0"
}
`))
	if err != nil {
		t.Fatal(err)
	}
	f := set.Rules()[0]
	g := graph.New(0, 0)
	chain := capitalChain(g, "country_0", "city_0")
	b := NewBundle(g, set)
	p := b.Program(f)
	if !p.Guard().Dead() {
		t.Fatal(`X names the uninterned "zzz": the guard must be dead`)
	}
	m := match.NewMatcher(b.Topo())
	if len(m.All(f.Q, match.Options{})) == 0 || len(m.All(f.Q, match.Options{Guard: p.Guard()})) != 0 {
		t.Fatal("the dead guard must skip a pattern that has matches")
	}
	if got := detVio(g, set); len(got) != 0 {
		t.Fatalf("detVio reported %v", got)
	}
	if got := repVal(g, set, Options{N: 2}).Violations; len(got) != 0 {
		t.Fatalf("repVal reported %v", got)
	}

	ov := graph.NewOverlay(g)
	ov.SetAttr(chain[0], "val", "zzz")
	b2 := NewBundleOver(ov.Snapshot, set, b)
	p2 := b2.Program(f)
	if p2 == p || p2.Guard().Dead() {
		t.Fatal("the overlay interned the constant: the program must be recompiled and live")
	}
	want := Report{{Rule: "r", Match: core.Match{chain[0], chain[1]}}}
	sink := NewCollectSink(1)
	if err := DetVioB(context.Background(), b2, sink); err != nil {
		t.Fatal(err)
	}
	if got := sink.Report(); !got.Equal(want) {
		t.Fatalf("DetVioB over the overlay: %v, want %v", got, want)
	}
	res, err := RepValB(context.Background(), b2, Options{N: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(want) {
		t.Fatalf("repVal over the overlay: %v, want %v", res.Violations, want)
	}
}
