package incremental

import (
	"context"
	"fmt"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

// fuzzRules covers the delta rule's hard shapes over labels a/b, edge
// labels e/f and one attribute p: a wildcard node over a wildcard edge, a
// pattern self-loop, a single-node second component, two rules whose
// printed keys can collide ("r,1" over one node, "r" over two), and a
// constant X, whose unpinned search starts from the holders of p = "1".
func fuzzRules() *core.Set {
	p := func(x, y pattern.Var) core.Literal { return core.VarEq(x, "p", y, "p") }
	return core.MustNewSet(
		rule("wild", []string{pattern.Wildcard, "a"}, []pattern.Edge{{From: 0, To: 1, Label: pattern.Wildcard}},
			nil, []core.Literal{p("v0", "v1")}),
		rule("loop", []string{"a"}, []pattern.Edge{{From: 0, To: 0, Label: "e"}},
			nil, []core.Literal{core.Const("v0", "p", "0")}),
		rule("lone", []string{"a", "b", "b"}, []pattern.Edge{{From: 0, To: 1, Label: "e"}},
			[]core.Literal{p("v1", "v2")}, []core.Literal{p("v0", "v2")}),
		named("r,1", rule("r1", []string{"b"}, nil, nil, []core.Literal{core.Const("v0", "p", "0")})),
		rule("r", []string{"a", "b"}, []pattern.Edge{{From: 0, To: 1, Label: "f"}},
			nil, []core.Literal{p("v0", "v1")}),
		rule("const", []string{"a", "b"}, []pattern.Edge{{From: 0, To: 1, Label: "e"}},
			[]core.Literal{core.Const("v0", "p", "1")}, []core.Literal{p("v0", "v1")}),
	)
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return int(c)
}

// attrs decodes a node's attributes: p absent or one of three values.
func (b *fuzzBytes) attrs() graph.Attrs {
	if c := b.next() % 4; c < 3 {
		return graph.Attrs{"p": fmt.Sprint(c)}
	}
	return nil
}

// FuzzIncrementalMatchesScan decodes a small graph and update batches over
// fuzzRules' shapes and, after every batch, compares the maintained report
// and a sequential scan of the graph's live overlay view with sequential
// detection on a fresh freeze of a clone.
func FuzzIncrementalMatchesScan(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 1, 0, 2, 2, 0, 1, 0, 1, 3, 2, 0, 0, 1, 2, 2, 1, 1, 3})
	f.Add([]byte{1, 0, 0, 0, 2, 4, 0, 0, 0, 1, 3, 0, 0, 2})
	f.Add([]byte{5, 0, 1, 1, 0, 1, 1, 0, 2, 1, 3, 6, 0, 1, 1, 4, 1, 0, 3, 0, 2, 1, 9, 0, 8, 3, 1, 4, 2, 5})
	labels, edgeLabels := []string{"a", "b"}, []string{"e", "f"}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		g := graph.New(0, 0)
		for n := 1 + in.next()%6; n > 0; n-- {
			g.AddNode(labels[in.next()%2], in.attrs())
		}
		// edge reads one edge; from and to name any node added so far.
		edge := func(n int) AddEdge {
			return AddEdge{From: graph.NodeID(in.next() % n), To: graph.NodeID(in.next() % n), Label: edgeLabels[in.next()%2]}
		}
		for m := in.next() % 10; m > 0; m-- {
			if e := edge(g.NumNodes()); !g.HasEdge(e.From, e.To, e.Label) {
				g.MustAddEdge(e.From, e.To, e.Label)
			}
		}
		set := fuzzRules()
		d := New(g, set)
		check := func(batch int) {
			want := detVio(g.Clone(), set)
			if got := d.Report(); !got.Equal(want) || d.Len() != len(want) {
				t.Fatalf("batch %d: maintained %v (Len %d), scan %v", batch, got.Keys(), d.Len(), want.Keys())
			}
			ov := g.LiveOverlay()
			if ov == nil {
				t.Fatalf("batch %d: the detector's graph has no live overlay", batch)
			}
			if got := scan(validate.NewBundleOver(ov.Snapshot, set, nil)); !got.Equal(want) {
				t.Fatalf("batch %d: scan of the live view %v, of a fresh freeze %v", batch, got.Keys(), want.Keys())
			}
		}
		check(-1)
		for batch, batches := 0, 1+in.next()%4; batch < batches; batch++ {
			var ups []Update
			n := g.NumNodes()
			added := make(map[AddEdge]bool)
			for k := 1 + in.next()%4; k > 0; k-- {
				switch in.next() % 3 {
				case 0:
					ups = append(ups, AddNode{Label: labels[in.next()%2], Attrs: in.attrs()})
					n++
				case 1:
					// No duplicate (from, to, label) edges: the graph's
					// documented invariant.
					if e := edge(n); !added[e] && (int(e.From) >= g.NumNodes() || int(e.To) >= g.NumNodes() || !g.HasEdge(e.From, e.To, e.Label)) {
						added[e] = true
						ups = append(ups, e)
					}
				default:
					v := graph.NodeID(in.next() % n)
					ups = append(ups, SetAttr{Node: v, Attr: "p", Value: fmt.Sprint(in.next() % 3)})
				}
			}
			d.Apply(ups...)
			check(batch)
		}
	})
}

// detVio is a one-shot sequential run: Vio(Σ, G), canonically sorted.
func detVio(g *graph.Graph, set *core.Set) validate.Report {
	return scan(validate.NewBundle(g, set))
}

// scan is a sequential run over b, canonically sorted.
func scan(b *validate.Bundle) validate.Report {
	sink := validate.NewCollectSink(1)
	if err := validate.DetVioB(context.Background(), b, sink); err != nil {
		panic(err)
	}
	out := sink.Report()
	out.Sort()
	return out
}
