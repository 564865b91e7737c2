package validate

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// randomWorkload builds a small random graph plus a random rule set, both
// derived deterministically from a seed — the generator of the
// metamorphic harness's random workloads. X carries up to three literals of
// every kind the guards compile: constants, cross-node and same-node
// (x.A = x.B) equalities, an attribute name no node carries and a
// constant no node holds (never interned on a frozen table). A third of
// the sets add rules over a node-permuted copy of the pattern with their
// own X and Y, so multi-query groups mix members whose X differ.
func randomWorkload(seed int64) (*graph.Graph, *core.Set) {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c"}
	edgeLabels := []string{"e", "f"}
	attrs := []string{"p", "q"}

	n := 8 + rng.Intn(16)
	g := graph.New(n, 0)
	for i := 0; i < n; i++ {
		am := graph.Attrs{}
		for _, a := range attrs {
			if rng.Intn(3) > 0 { // attributes may be missing
				am[a] = fmt.Sprintf("v%d", rng.Intn(3))
			}
		}
		g.AddNode(labels[rng.Intn(len(labels))], am)
	}
	nEdges := n + rng.Intn(2*n)
	for e := 0; e < nEdges; e++ {
		from := graph.NodeID(rng.Intn(n))
		to := graph.NodeID(rng.Intn(n))
		// No parallel duplicates (the graph's documented invariant): on
		// them the legacy oracle yields a match once per duplicate edge.
		if l := edgeLabels[rng.Intn(len(edgeLabels))]; from != to && !g.HasEdge(from, to, l) {
			g.MustAddEdge(from, to, l)
		}
	}

	// Random pattern: 2-4 nodes, chain plus a random extra edge; possibly
	// a second single-node component.
	q := pattern.New()
	pn := 2 + rng.Intn(3)
	for i := 0; i < pn; i++ {
		q.AddNode(pattern.Var(fmt.Sprintf("v%d", i)), labels[rng.Intn(len(labels))])
	}
	for i := 1; i < pn; i++ {
		q.AddEdge(i-1, i, edgeLabels[rng.Intn(len(edgeLabels))])
	}
	if rng.Intn(2) == 0 && pn > 2 {
		q.AddEdge(0, pn-1, edgeLabels[rng.Intn(len(edgeLabels))])
	}
	if rng.Intn(3) == 0 {
		q.AddNode(pattern.Var("iso"), labels[rng.Intn(len(labels))])
	}

	randLit := func(q *pattern.Pattern, xSide bool) core.Literal {
		vars := q.Vars()
		x := vars[rng.Intn(len(vars))]
		attr := attrs[rng.Intn(len(attrs))]
		if xSide && rng.Intn(10) == 0 {
			attr = "ghost" // no node carries it
		}
		switch k := rng.Intn(5); {
		case k < 2:
			c := fmt.Sprintf("v%d", rng.Intn(3))
			if xSide && rng.Intn(10) == 0 {
				c = "never" // no node holds it
			}
			return core.Const(x, attr, c)
		case k == 2 && xSide:
			return core.VarEq(x, "p", x, "q")
		}
		y := vars[rng.Intn(len(vars))]
		return core.VarEq(x, attr, y, attrs[rng.Intn(len(attrs))])
	}
	rule := func(name string, q *pattern.Pattern) *core.GFD {
		var x, y []core.Literal
		for i := rng.Intn(4); i > 0; i-- {
			x = append(x, randLit(q, true))
		}
		for i := 1 + rng.Intn(2); i > 0; i-- {
			y = append(y, randLit(q, false))
		}
		return core.MustNew(name, q, x, y)
	}
	rules := []*core.GFD{rule("r", q)}
	if rng.Intn(3) == 0 {
		perm := rng.Perm(q.NumNodes())
		pq := pattern.New()
		inv := make([]int, len(perm))
		for i, pi := range perm {
			inv[pi] = i
		}
		for _, oi := range inv {
			nd := q.Nodes[oi]
			pq.AddNode("p"+nd.Var, nd.Label)
		}
		for _, e := range q.Edges {
			pq.AddEdge(perm[e.From], perm[e.To], e.Label)
		}
		for i := 1 + rng.Intn(2); i > 0; i-- {
			rules = append(rules, rule(fmt.Sprintf("r%d", i), pq))
		}
	}
	return g, core.MustNewSet(rules...)
}

// violatingNodes returns the distinct inconsistent entities across r,
// ascending: the quantity precision and recall are computed over in Exp-5.
func violatingNodes(r Report) []graph.NodeID {
	var out []graph.NodeID
	for _, v := range r {
		out = append(out, v.Match...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// oracleVio is the differential reference, independent of every engine
// and of the guards: the legacy matcher over the mutable graph plus the
// map-based GFD.IsViolation on each full match.
func oracleVio(g *graph.Graph, set *core.Set) Report {
	var out Report
	for _, f := range set.Rules() {
		match.Enumerate(g, f.Q, match.Options{}, func(h core.Match) bool {
			if f.IsViolation(g, h) {
				out = append(out, Violation{Rule: f.Name, Match: append(core.Match(nil), h...)})
			}
			return true
		})
	}
	out.Sort()
	return out
}

// TestPropertyNormalizePreservesSemantics: a match violates ϕ iff it
// violates some rule of ϕ's normal form.
func TestPropertyNormalizePreservesSemantics(t *testing.T) {
	f := func(seedRaw uint32) bool {
		g, set := randomWorkload(int64(seedRaw))
		var norm []*core.GFD
		for _, r := range set.Rules() {
			norm = append(norm, r.Normalize()...)
		}
		want := detVio(g, set)
		if len(norm) == 0 {
			return len(want) == 0
		}
		got := detVio(g, core.MustNewSet(norm...))
		// Entities flagged must coincide (multiple normalized rules may
		// flag the same match, so counts differ but entity sets must not).
		return slices.Equal(violatingNodes(want), violatingNodes(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertySatisfiesIffNoViolations: satisfies(g, Σ) == (Vio = ∅).
func TestPropertySatisfiesIffNoViolations(t *testing.T) {
	f := func(seedRaw uint32) bool {
		g, set := randomWorkload(int64(seedRaw))
		return satisfies(g, set) == (len(detVio(g, set)) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// ruleThenIDs is the canonical order of a report, written apart from the
// keyer so that the tests hold Report.Sort and the collect sink to it: the
// rule name bytewise, then the match's IDs as integers, a match ahead of
// every match it is a prefix of.
func ruleThenIDs(a, b Violation) int {
	return cmp.Or(strings.Compare(a.Rule, b.Rule), slices.Compare(a.Match, b.Match))
}

// TestPropertyReportSortIsRuleThenIDs pins Report.Sort to ruleThenIDs, and
// Key() to "<rule>,<id>,<id>…". The rule names include proper prefixes of
// one another continued by bytes below, at and above ',', so an order over
// rendered keys interleaves them; the IDs run from one to ten digits, so
// one compared as text puts 10 before 9. A quarter of the matches have
// four IDs near 2³¹, more than the prefix key has slots for, so their ties
// reach the fallback comparison.
func TestPropertyReportSortIsRuleThenIDs(t *testing.T) {
	fmtKey := func(v Violation) string {
		var b strings.Builder
		b.WriteString(v.Rule)
		for _, id := range v.Match {
			fmt.Fprintf(&b, ",%d", id)
		}
		return b.String()
	}
	rules := []string{"r", "r ", "r!", "r+x", "r,", "r,1", "r-", "r0", "r1", "rule", "rule#2", "rule_2", "", "é"}
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		report := make(Report, 1+rng.Intn(400))
		for i := range report {
			m := make(core.Match, rng.Intn(4))
			for j := range m {
				m[j] = graph.NodeID(rng.Int63n(1 << uint(1+rng.Intn(31))))
			}
			if rng.Intn(4) == 0 {
				m = make(core.Match, 4)
				for j := range m {
					m[j] = 1<<31 - 1 - graph.NodeID(rng.Intn(3))
				}
			}
			report[i] = Violation{Rule: rules[rng.Intn(len(rules))], Match: m}
			if got, want := report[i].Key(), fmtKey(report[i]); got != want {
				t.Fatalf("Key() = %q, want %q", got, want)
			}
		}
		want := slices.Clone(report)
		slices.SortFunc(want, ruleThenIDs)
		report.Sort()
		for i, v := range report {
			if ruleThenIDs(v, want[i]) != 0 {
				t.Fatalf("round %d: position %d holds %q, ruleThenIDs puts %q there", round, i, v.Key(), want[i].Key())
			}
		}
	}
}
