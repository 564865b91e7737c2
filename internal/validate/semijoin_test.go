package validate

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// semiJoinShapes are workloads whose closing joins take the matcher's
// semi-join route: triangles pivoted on a hub whose fixed run is long and
// whose siblings' runs are short, on hub siblings whose runs are long, and
// on A nodes with no ac-edge (an empty fixed run); and the benchmark's
// cyc4 diamond. Every Y compares values drawn from four, so most matches
// violate and Vio is a fair image of the match set.
func semiJoinShapes(seed int64) map[string]func() (*graph.Graph, *core.Set) {
	val := func(rng *rand.Rand) graph.Attrs { return graph.Attrs{"val": fmt.Sprintf("v%d", rng.Intn(4))} }
	triangle := func(hubB, emptyA int) (*graph.Graph, *core.Set) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New(0, 0)
		var as, bs, cs []graph.NodeID
		for i := 0; i < 300; i++ {
			as = append(as, g.AddNode("A", val(rng)))
			bs = append(bs, g.AddNode("B", val(rng)))
			cs = append(cs, g.AddNode("C", val(rng)))
		}
		as, bs = as[:20], bs[:150]
		link := func(from graph.NodeID, to []graph.NodeID, label string, k int) {
			for _, i := range rng.Perm(len(to))[:k] {
				g.MustAddEdge(from, to[i], label)
			}
		}
		for i, a := range as {
			k := 4
			if i == 0 {
				k = len(bs)
			}
			link(a, bs, "ab", k)
			if i < len(as)-emptyA {
				link(a, cs, "ac", min(2*k, len(cs)))
			}
		}
		for i, b := range bs {
			k := 3
			if i < hubB {
				k = len(cs)
			}
			link(b, cs, "bc", k)
		}
		q := pattern.New()
		x, y, z := q.AddNode("a", "A"), q.AddNode("b", "B"), q.AddNode("c", "C")
		q.AddEdge(x, y, "ab")
		q.AddEdge(y, z, "bc")
		q.AddEdge(x, z, "ac")
		return g, core.MustNewSet(core.MustNew("tri", q, nil, []core.Literal{core.VarEq("a", "val", "c", "val")}))
	}
	return map[string]func() (*graph.Graph, *core.Set){
		"long fixed":    func() (*graph.Graph, *core.Set) { return triangle(0, 0) },
		"long siblings": func() (*graph.Graph, *core.Set) { return triangle(10, 0) },
		"empty fixed":   func() (*graph.Graph, *core.Set) { return triangle(3, 8) },
		"cyc4 diamond": func() (*graph.Graph, *core.Set) {
			rng := rand.New(rand.NewSource(seed))
			g := graph.New(0, 0)
			for i := 0; i < 500; i++ {
				g.AddNode(fmt.Sprintf("L%d", i%3), val(rng))
			}
			pick := func() graph.NodeID { return graph.NodeID(int(500 * rng.Float64() * rng.Float64())) }
			for i := 0; i < 8000; i++ {
				from, to, l := pick(), pick(), fmt.Sprintf("e%d", rng.Intn(3))
				if from != to && !g.HasEdge(from, to, l) {
					g.MustAddEdge(from, to, l)
				}
			}
			q := pattern.New()
			a, b, c, d := q.AddNode("a", "L0"), q.AddNode("b", "L1"), q.AddNode("c", "L2"), q.AddNode("d", "L0")
			q.AddEdge(a, b, "e0")
			q.AddEdge(a, c, "e1")
			q.AddEdge(b, d, "e2")
			q.AddEdge(c, d, "e0")
			return g, core.MustNewSet(core.MustNew("diamond", q, nil, []core.Literal{core.VarEq("a", "val", "d", "val")}))
		},
	}
}

// TestSemiJoinShapesMatchOracle runs the semi-join shapes through the
// sequential engine and repVal, which bind each pivot as a unit does, and
// compares Vio with the oracle's.
func TestSemiJoinShapesMatchOracle(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 2; seed++ {
		for name, build := range semiJoinShapes(seed) {
			g, set := build()
			want := oracleVio(g, set)
			if len(want) == 0 {
				t.Fatalf("%s seed %d: no violations; the check is vacuous", name, seed)
			}
			b := NewBundle(g, set)
			seq := NewCollectSink(1)
			if err := DetVioB(ctx, b, seq); err != nil {
				t.Fatal(err)
			}
			if got := seq.sorted(); !got.Equal(want) {
				t.Fatalf("%s seed %d: sequential found %d violations, oracle %d", name, seed, len(got), len(want))
			}
			rep := NewCollectSink(3)
			if _, err := RepValB(ctx, b, Options{N: 3}, rep); err != nil {
				t.Fatal(err)
			}
			if got := rep.sorted(); !got.Equal(want) {
				t.Fatalf("%s seed %d: repVal found %d violations, oracle %d", name, seed, len(got), len(want))
			}
		}
	}
}
