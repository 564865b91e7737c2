// Allocation-tracked benchmarks for the two enumeration paths. Run with
//
//	go test ./internal/match -bench=BenchmarkEnumerate -benchmem
//
// The snapshot sub-benchmarks must report 0 allocs/op (steady state);
// TestMatcherZeroAllocSteadyState asserts it.
package match_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

func starPattern() *pattern.Pattern {
	q := pattern.New()
	f := q.AddNode("f", "flight")
	id := q.AddNode("i", "id")
	from := q.AddNode("c", "city")
	q.AddEdge(f, id, "number")
	q.AddEdge(f, from, "from")
	return q
}

func trianglePattern() *pattern.Pattern {
	q := pattern.New()
	a := q.AddNode("a", "person")
	b := q.AddNode("b", "person")
	c := q.AddNode("c", "person")
	q.AddEdge(a, b, "knows")
	q.AddEdge(b, c, "knows")
	q.AddEdge(a, c, "knows")
	return q
}

func BenchmarkEnumerate(b *testing.B) {
	gStar := gen.YAGO2Like(gen.DatasetConfig{Scale: 400, Seed: 1})
	qStar := starPattern()
	gTri := gen.PokecLike(gen.DatasetConfig{Scale: 300, Seed: 2})
	qTri := trianglePattern()

	yield := func(core.Match) bool { return true }

	b.Run("star/legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			match.Enumerate(gStar, qStar, match.Options{}, yield)
		}
	})
	b.Run("star/snapshot", func(b *testing.B) {
		m := match.NewMatcher(gStar.Freeze())
		m.Enumerate(qStar, match.Options{}, yield) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Enumerate(qStar, match.Options{}, yield)
		}
	})
	b.Run("triangle/legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			match.Enumerate(gTri, qTri, match.Options{}, yield)
		}
	})
	b.Run("triangle/snapshot", func(b *testing.B) {
		m := match.NewMatcher(gTri.Freeze())
		m.Enumerate(qTri, match.Options{}, yield) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Enumerate(qTri, match.Options{}, yield)
		}
	})
}

// BenchmarkFreeze prices the snapshot build itself, so callers can judge
// the freeze-then-match break-even point.
func BenchmarkFreeze(b *testing.B) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 400, Seed: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.SetAttr(0, "val", "poke") // invalidate the cache: measure a real rebuild
		_ = g.Freeze()
	}
}

// BenchmarkEnumerateGuarded prices literal pushdown against enumerating
// every match and running the literal program on each (the paper's
// detVio, "unguarded"). "guarded" pushes X into the search: on a
// cyc4-style diamond with the benchmark's two-literal X, and ("seed/…") on
// a YAGO-like graph under a one-constant X on a person, whose guarded
// search starts from the holders of that value instead of the person
// class. Each pair must find the same violations.
func BenchmarkEnumerateGuarded(b *testing.B) {
	g, f := diamondWorkload(3002, 45000, 8, 1)
	yg, yf := personSeedWorkload()
	for _, w := range []struct {
		prefix string
		snap   *graph.Snapshot
		f      *core.GFD
	}{{"", g.Freeze(), f}, {"seed/", yg.Freeze(), yf}} {
		snap, f := w.snap, w.f
		prog := f.CompileLiterals(snap.Syms())
		violations := func(m *match.Matcher, opts match.Options) (keys []string) {
			m.Enumerate(f.Q, opts, func(h core.Match) bool {
				if prog.IsViolation(snap, h) {
					keys = append(keys, fmt.Sprint([]graph.NodeID(h)))
				}
				return true
			})
			return keys
		}
		want := violations(match.NewMatcher(snap), match.Options{})
		if len(want) == 0 {
			b.Fatalf("%sno violations: the equivalence check is vacuous", w.prefix)
		}
		sort.Strings(want)
		for _, v := range []struct {
			name string
			opts match.Options
		}{
			{"guarded", match.Options{Guard: prog.Guard()}},
			{"unguarded", match.Options{}},
		} {
			b.Run(w.prefix+v.name, func(b *testing.B) {
				m := match.NewMatcher(snap)
				got := violations(m, v.opts) // warm-up, and the check
				sort.Strings(got)
				if !slices.Equal(got, want) {
					b.Fatalf("%s: %d violations, unguarded reference %d", v.name, len(got), len(want))
				}
				yield := func(h core.Match) bool {
					prog.IsViolation(snap, h)
					return true
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.Enumerate(f.Q, v.opts, yield)
				}
			})
		}
	}
}

// personSeedWorkload is a YAGO-like graph and a rule shaped like the
// benchmark's y_first_parent: a person, a parent and two of the parent's
// children, X one constant on the first person — the value of the first
// person with a match — and a Y no parent satisfies, so every match X
// admits is a violation.
func personSeedWorkload() (*graph.Graph, *core.GFD) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 4000, Seed: 1})
	q := pattern.New()
	x0, x1, x2, x3 := q.AddNode("x0", "person"), q.AddNode("x1", "person"), q.AddNode("x2", "person"), q.AddNode("x3", "person")
	q.AddEdge(x0, x1, "has_parent")
	q.AddEdge(x1, x2, "has_child")
	q.AddEdge(x1, x3, "has_child")
	var val string
	match.NewMatcher(g.Freeze()).Enumerate(q, match.Options{}, func(h core.Match) bool {
		val, _ = g.Attr(h[x0], "val")
		return false
	})
	return g, core.MustNew("first_parent", q, []core.Literal{core.Const("x0", "val", val)}, []core.Literal{core.Const("x1", "val", "nobody")})
}

// BenchmarkEnumerateMixedLabels times the three label-rotated triangles of
// the cyclic workloads (a:Lr -er-> b:Lr+1 -er+1-> c:Lr+2, a -er+2-> c) on a
// gen-built power-law graph with three node and three edge labels, where
// two thirds of every edge-label range are neighbours of the wrong node
// label. It reports ns per match for the intersection route (wco) and for
// Options.NoIntersect (probe), and fails when the two match sets differ.
func BenchmarkEnumerateMixedLabels(b *testing.B) {
	snap := gen.Synthetic(gen.SyntheticConfig{Nodes: 1000, Edges: 40000, Labels: 3, Skew: 0.6, Seed: 1}).Freeze()
	var tris []*pattern.Pattern
	for r := 0; r < 3; r++ {
		lab := func(i int) string { return fmt.Sprintf("L%d", (r+i)%3) }
		edge := func(i int) string { return fmt.Sprintf("e%d", (r+i)%3) }
		q := pattern.New()
		x, y, z := q.AddNode("a", lab(0)), q.AddNode("b", lab(1)), q.AddNode("c", lab(2))
		q.AddEdge(x, y, edge(0))
		q.AddEdge(y, z, edge(1))
		q.AddEdge(x, z, edge(2))
		tris = append(tris, q)
	}
	matches := 0
	for i, q := range tris {
		wco := matchKeys(match.NewMatcher(snap).All(q, match.Options{}))
		probe := matchKeys(match.NewMatcher(snap).All(q, match.Options{NoIntersect: true}))
		if !slices.Equal(wco, probe) {
			b.Fatalf("tri%d: intersection found %d matches, NoIntersect %d", i, len(wco), len(probe))
		}
		matches += len(wco)
	}
	if matches == 0 {
		b.Fatal("no triangles: the benchmark is vacuous")
	}
	for _, route := range []struct {
		name string
		opts match.Options
	}{{"wco", match.Options{}}, {"probe", match.Options{NoIntersect: true}}} {
		b.Run(route.name, func(b *testing.B) {
			m := match.NewMatcher(snap)
			yield := func(core.Match) bool { return true }
			for _, q := range tris {
				m.Enumerate(q, route.opts, yield) // warm-up
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range tris {
					m.Enumerate(q, route.opts, yield)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*matches), "ns/match")
		})
	}
}

// BenchmarkEnumerateHubRebound binds a hub at depth 1 under 2 000 pivots,
// each with one sibling: the closing node's fixed run is the hub's
// 5 000-entry run, rebound per pivot and joined against one short run. The
// semi-join must not write it per binding (it leapfrogs until the
// siblings' runs add up to its length). Fails when the match count
// differs from NoIntersect's.
func BenchmarkEnumerateHubRebound(b *testing.B) {
	g := graph.New(0, 0)
	hub := g.AddNode("B", nil)
	var ds []graph.NodeID
	for i := 0; i < 5000; i++ {
		ds = append(ds, g.AddNode("D", nil))
		g.MustAddEdge(hub, ds[i], "bd")
	}
	for i := 0; i < 2000; i++ {
		a, c := g.AddNode("A", nil), g.AddNode("C", nil)
		g.MustAddEdge(a, hub, "ab")
		g.MustAddEdge(a, c, "ac")
		g.MustAddEdge(c, ds[i], "cd")
	}
	q := pattern.New()
	x, y, z, w := q.AddNode("a", "A"), q.AddNode("b", "B"), q.AddNode("c", "C"), q.AddNode("d", "D")
	q.AddEdge(x, y, "ab")
	q.AddEdge(x, z, "ac")
	q.AddEdge(y, w, "bd")
	q.AddEdge(z, w, "cd")
	snap := g.Freeze()
	opts := match.Options{Pins: []match.Pin{{Node: 0, To: snap.NodesWith(snap.Syms().Lookup("A"))}}}
	m := match.NewMatcher(snap)
	probe := opts
	probe.NoIntersect = true
	if n, want := m.Count(q, opts), match.NewMatcher(snap).Count(q, probe); n != want || n == 0 {
		b.Fatalf("%d matches, NoIntersect %d", n, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count(q, opts)
	}
}

// BenchmarkEnumerateWindowClustered times full enumerations of the three
// cyclic shapes by intersection (wco) and by probe backtracking
// (Options.NoIntersect): together with match.ns_per_match vs
// match.nointersect_ns_per_match on the benchmark's Chung–Lu graph it
// gives the WCO/probe choice a workload on each side.
func BenchmarkEnumerateWindowClustered(b *testing.B) {
	snap := windowClusteredGraph(1000, 32, 42).Freeze()
	want := map[string]int{} // probe count per shape, computed untimed on first use
	for _, route := range []struct {
		name        string
		noIntersect bool
	}{{"wco", false}, {"probe", true}} {
		for _, shape := range []string{"triangle", "diamond", "cycle4"} {
			q := cyclicShapes()[shape]
			b.Run(route.name+"/"+shape, func(b *testing.B) {
				if _, ok := want[shape]; !ok {
					want[shape] = match.NewMatcher(snap).Count(q, match.Options{NoIntersect: true})
				}
				m := match.NewMatcher(snap)
				opts := match.Options{NoIntersect: route.noIntersect}
				n := 0
				yield := func(core.Match) bool { n++; return true }
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n = 0
					m.Enumerate(q, opts, yield)
					if n != want[shape] {
						b.Fatalf("%s found %d matches, probe reference %d", route.name, n, want[shape])
					}
				}
			})
		}
	}
}
