package validate

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// randomWorkload builds a small random graph plus a random rule, both
// derived deterministically from a seed — the generator for the
// end-to-end equivalence properties.
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
		if from != to {
			g.MustAddEdge(from, to, edgeLabels[rng.Intn(len(edgeLabels))])
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

	randLit := func() core.Literal {
		vars := q.Vars()
		x := vars[rng.Intn(len(vars))]
		if rng.Intn(2) == 0 {
			return core.Const(x, attrs[rng.Intn(len(attrs))], fmt.Sprintf("v%d", rng.Intn(3)))
		}
		y := vars[rng.Intn(len(vars))]
		return core.VarEq(x, attrs[rng.Intn(len(attrs))], y, attrs[rng.Intn(len(attrs))])
	}
	var x, y []core.Literal
	for i := 0; i < rng.Intn(2); i++ {
		x = append(x, randLit())
	}
	for i := 0; i < 1+rng.Intn(2); i++ {
		y = append(y, randLit())
	}
	return g, core.MustNewSet(core.MustNew("r", q, x, y))
}

// TestPropertyEnginesEquivalent is the central end-to-end property: on
// arbitrary graphs and rules, repVal and disVal (all variants) compute
// exactly detVio's violation set.
func TestPropertyEnginesEquivalent(t *testing.T) {
	f := func(seedRaw uint32) bool {
		seed := int64(seedRaw)
		g, set := randomWorkload(seed)
		want := detVio(g, set)
		for _, opt := range []Options{
			{N: 1, NoReduce: true},
			{N: 3, NoReduce: true},
			{N: 3, RandomAssign: true, Seed: seed, NoReduce: true},
			{N: 3, NoOptimize: true},
			{N: 3, SplitThreshold: 4, NoReduce: true},
		} {
			if !repVal(g, set, opt).Violations.Equal(want) {
				t.Logf("seed %d: repVal(%+v) diverged", seed, opt)
				return false
			}
			frag := fragment.Partition(g, opt.N, fragment.Hash)
			if !disVal(g, frag, set, opt).Violations.Equal(want) {
				t.Logf("seed %d: disVal(%+v) diverged", seed, opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyNormalizePreservesSemantics: a match violates ϕ iff it
// violates some rule of ϕ's normal form.
func TestPropertyNormalizePreservesSemantics(t *testing.T) {
	f := func(seedRaw uint32) bool {
		g, set := randomWorkload(int64(seedRaw))
		ruleOrig := set.Rules()[0]
		norm := ruleOrig.Normalize()
		normSet := core.MustNewSet(norm...)
		want := detVio(g, set)
		got := detVio(g, normSet)
		// Entities flagged must coincide (multiple normalized rules may
		// flag the same match, so counts differ but entity sets must not).
		wantNodes, gotNodes := want.ViolatingNodes(), got.ViolatingNodes()
		if wantNodes.Len() != gotNodes.Len() {
			return false
		}
		for v := range wantNodes {
			if !gotNodes.Contains(v) {
				return false
			}
		}
		return true
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

// TestPropertyFragmentationInvariant: the violation set is independent of
// how the graph is fragmented.
func TestPropertyFragmentationInvariant(t *testing.T) {
	f := func(seedRaw uint32) bool {
		g, set := randomWorkload(int64(seedRaw))
		a := disVal(g, fragment.Partition(g, 2, fragment.Hash), set, Options{N: 2, NoReduce: true})
		b := disVal(g, fragment.Partition(g, 5, fragment.Range), set, Options{N: 5, NoReduce: true})
		return a.Violations.Equal(b.Violations)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyReportSortIsKeyStringOrder pins Report.Sort — which renders
// each key once into a shared buffer — to the order it replaced: ascending
// order of the "<rule>,<id>,<id>…" strings, compared as strings. The rule
// names include proper prefixes of one another continued by bytes below,
// at and above ',', so a comparison that stops at the end of the shorter
// name, or compares IDs as numbers, orders them differently; the IDs run
// from one to ten digits for the same reason ("10" < "9", "1,5" < "10").
func TestPropertyReportSortIsKeyStringOrder(t *testing.T) {
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
			report[i] = Violation{Rule: rules[rng.Intn(len(rules))], Match: m}
		}
		want := make([]string, len(report))
		for i, v := range report {
			want[i] = fmtKey(v)
			if got := v.Key(); got != want[i] {
				t.Fatalf("Key() = %q, want %q", got, want[i])
			}
		}
		sort.Strings(want)
		report.Sort()
		for i, v := range report {
			if got := fmtKey(v); got != want[i] {
				t.Fatalf("round %d: position %d holds %q, string order puts %q there", round, i, got, want[i])
			}
		}
	}
}
