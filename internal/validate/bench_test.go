// Allocation-tracked benchmarks for sequential detection: the snapshot
// path DetVio now runs on, against the legacy slice-backed enumeration it
// replaced. Run with
//
//	go test ./internal/validate -bench=BenchmarkDetVio -benchmem
//
// and the parallel engine's work relative to it with
// BenchmarkParallelOverSequential.
package validate

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

func detVioWorkload() (*graph.Graph, *core.Set) {
	clean := gen.YAGO2Like(gen.DatasetConfig{Scale: 250, Seed: 42})
	set := gen.MineGFDs(clean, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 44})
	gen.Inject(clean, gen.NoiseConfig{Rate: 0.02, Seed: 43})
	return clean, set
}

// detVioLegacy is the pre-snapshot sequential detector, kept verbatim as
// the benchmark baseline: it walks the mutable graph's [][]HalfEdge slices
// with string label comparison.
func detVioLegacy(g *graph.Graph, set *core.Set) Report {
	var out Report
	for _, f := range set.Rules() {
		match.Enumerate(g, f.Q, match.Options{}, func(m core.Match) bool {
			if f.IsViolation(g, m) {
				out = append(out, Violation{Rule: f.Name, Match: append(core.Match(nil), m...)})
			}
			return true
		})
	}
	out.Sort()
	return out
}

func BenchmarkDetVio(b *testing.B) {
	g, set := detVioWorkload()
	var want, got Report
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			want = detVioLegacy(g, set)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		g.Freeze() // amortized across runs, as in production use
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got = detVio(g, set)
		}
	})
	if want != nil && got != nil && !want.Equal(got) {
		b.Fatalf("paths disagree: legacy %d violations, snapshot %d", len(want), len(got))
	}
}

// ParallelWorkload is one rule set of the parallel-over-sequential
// measurement.
type ParallelWorkload struct {
	Name string
	G    *graph.Graph
	Set  *core.Set
}

// ParallelWorkloads builds both rule sets with gen. "kb" is a DBpedia-like
// graph under mined rules, each with a constant X, plus Fig. 7's GFD 2,
// whose wildcard entity ties with a class for the pivot; 2 % attribute
// noise, targeted corruption and structural errors make every rule fire.
// "cyclic" is a skewed three-label graph under three label-rotated
// triangles with X = ∅ and Y = a.val = c.val over a domain of 16, so
// nearly every match violates and the hubs' units split into stripes.
func ParallelWorkloads() []ParallelWorkload {
	kb := gen.DBpediaLike(gen.DatasetConfig{Scale: 3000, Seed: 1})
	rules := gen.MineGFDs(kb, gen.MineConfig{NumRules: 9, PatternSize: 4, Seed: 1}).Rules()
	q := pattern.New()
	e, c, cp := q.AddNode("e", pattern.Wildcard), q.AddNode("c", "class"), q.AddNode("cp", "class")
	q.AddEdge(e, c, "type")
	q.AddEdge(e, cp, "type")
	q.AddEdge(c, cp, "disjoint_with")
	kbSet := core.MustNewSet(append(rules, core.MustNew("disjoint_types", q, nil, []core.Literal{core.VarEq("c", "val", "cp", "val")}))...)
	gen.Inject(kb, gen.NoiseConfig{Rate: 0.02, Seed: 2})
	gen.InjectTargeted(kb, kbSet, 0.05, 3)
	gen.InjectStructural(kb, 5, 4)

	cyc := gen.Synthetic(gen.SyntheticConfig{Nodes: 10000, Edges: 150000, Labels: 3, Attrs: 1, Domain: 16, Skew: 0.8, Seed: 1})
	var tris []*core.GFD
	for r := 0; r < 3; r++ {
		q := pattern.New()
		a, b, c := q.AddNode("a", fmt.Sprintf("L%d", r)), q.AddNode("b", fmt.Sprintf("L%d", (r+1)%3)), q.AddNode("c", fmt.Sprintf("L%d", (r+2)%3))
		q.AddEdge(a, b, fmt.Sprintf("e%d", r))
		q.AddEdge(b, c, fmt.Sprintf("e%d", (r+1)%3))
		q.AddEdge(a, c, fmt.Sprintf("e%d", (r+2)%3))
		tris = append(tris, core.MustNew(fmt.Sprintf("tri%d", r), q, nil, []core.Literal{core.VarEq("a", "val", "c", "val")}))
	}
	return []ParallelWorkload{
		{"kb", kb, kbSet},
		{"cyclic", cyc, core.MustNewSet(tris...)},
	}
}

// ParallelOverSequential returns warm repVal with one worker over warm
// sequential detection on one bundle of w: the median, over rounds of
// back-to-back pairs, of the pair's wall ratio, so that a descheduling
// landing in one run does not decide it. It collects first: a cycle over
// garbage an earlier caller left would otherwise fall inside the timed
// runs. Both collect a sorted report; one untimed run of each warms the
// plans and the estimation memo first. Above 1, a unit does work the
// sequential engine does not.
func ParallelOverSequential(tb testing.TB, w ParallelWorkload, rounds int) float64 {
	ctx := context.Background()
	b := NewBundle(w.G, w.Set)
	seq := func() Report {
		s := NewCollectSink(1)
		if err := DetVioB(ctx, b, s); err != nil {
			tb.Fatal(err)
		}
		return s.Report()
	}
	par := func() Report {
		res, err := RepValB(ctx, b, Options{N: 1}, nil)
		if err != nil {
			tb.Fatal(err)
		}
		return res.Violations
	}
	runtime.GC()
	want := seq()
	if got := par(); len(want) == 0 || !got.Equal(want) {
		tb.Fatalf("%s: repVal found %d violations, the sequential engine %d", w.Name, len(got), len(want))
	}
	ratios := make([]float64, rounds)
	for i := range ratios {
		start := time.Now()
		seq()
		ts := time.Since(start)
		start = time.Now()
		par()
		ratios[i] = float64(time.Since(start)) / float64(ts)
	}
	slices.Sort(ratios)
	return ratios[rounds/2]
}

// BenchmarkParallelOverSequential reports warm repVal n = 1 over warm
// sequential detection as par/seq per rule set — the work a unit does
// beyond the sequential engine's:
//
//	go test ./internal/validate -run xxx -bench BenchmarkParallelOverSequential
func BenchmarkParallelOverSequential(b *testing.B) {
	for _, w := range ParallelWorkloads() {
		b.Run(w.Name, func(b *testing.B) {
			b.ReportMetric(ParallelOverSequential(b, w, b.N), "par/seq")
		})
	}
}

// collectWorkload is n violations in the shape of the benchmark's
// cyc_dirty_collect report (n = 13 063 there): three arity-3 rules, IDs
// below 20 000, in random order.
func collectWorkload(n int) Report {
	rng := rand.New(rand.NewSource(1))
	rules := []string{"tri0", "tri1", "tri2"}
	out := make(Report, n)
	for i := range out {
		m := make(core.Match, 3)
		for j := range m {
			m[j] = graph.NodeID(rng.Intn(20000))
		}
		out[i] = Violation{Rule: rules[rng.Intn(len(rules))], Match: m}
	}
	return out
}

// BenchmarkCollectSorted prices the collect mode's sink: the violations
// emitted over two lanes, then the sorted Report built from them, in
// ns/violation (fails if the order is not ruleThenIDs order):
//
//	go test ./internal/validate -run xxx -bench BenchmarkCollectSorted -benchmem
func BenchmarkCollectSorted(b *testing.B) {
	vs := collectWorkload(13063)
	var got Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res Result
		sink, finish := orCollect(nil, 2, &res)
		for j, v := range vs {
			sink.Emit(j&1, v)
		}
		finish()
		got = res.Violations
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vs)), "ns/violation")
	for i, v := range ordered(vs) {
		if ruleThenIDs(got[i], v) != 0 {
			b.Fatalf("position %d holds %q, ruleThenIDs puts %q there", i, got[i].Key(), v.Key())
		}
	}
}
