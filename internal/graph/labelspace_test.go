package graph

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestEdgeLabelSpace: a key ranks an edge label in 16 bits, so the
// MaxEdgeLabels+1-th distinct edge label fails with ErrLabelSpace on every
// path that adds or reads one — Graph.AddEdge, Overlay.AddEdge, Read and
// an adopted image — while a label already held is still accepted.
func TestEdgeLabelSpace(t *testing.T) {
	g := New(2, MaxEdgeLabels)
	a, b := g.AddNode("n", nil), g.AddNode("n", nil)
	var text strings.Builder
	text.WriteString("node a n\nnode b n\n")
	for i := 0; i < MaxEdgeLabels; i++ {
		l := fmt.Sprintf("e%d", i)
		if err := g.AddEdge(a, b, l); err != nil {
			t.Fatalf("edge label %d: %v", i, err)
		}
		fmt.Fprintf(&text, "edge a %s b\n", l)
	}
	if err := g.AddEdge(a, b, "extra"); !errors.Is(err, ErrLabelSpace) {
		t.Fatalf("Graph.AddEdge of label %d = %v, want ErrLabelSpace", MaxEdgeLabels+1, err)
	}
	if err := g.AddEdge(b, a, "e7"); err != nil {
		t.Fatalf("Graph.AddEdge of a held label: %v", err)
	}
	text.WriteString("edge b extra a\n")
	if _, _, err := Read(strings.NewReader(text.String())); !errors.Is(err, ErrLabelSpace) {
		t.Fatalf("Read of %d edge labels = %v, want ErrLabelSpace", MaxEdgeLabels+1, err)
	}

	s := g.Freeze()
	if got := len(s.edgeLabels); got != MaxEdgeLabels {
		t.Fatalf("freeze ranks %d edge labels, want %d", got, MaxEdgeLabels)
	}
	if !s.HasEdge(b, a, s.Syms().Lookup("e7")) || !s.HasEdge(a, b, s.Syms().Lookup(fmt.Sprintf("e%d", MaxEdgeLabels-1))) {
		t.Fatal("an edge under the last ranks is missing")
	}
	f, err := s.Flat()
	if err != nil {
		t.Fatal(err)
	}
	crafted := f
	crafted.EdgeLabels = append(slices.Clone(f.EdgeLabels), s.Syms().Lookup("n"))
	if _, err := AdoptFlat(crafted); !errors.Is(err, ErrLabelSpace) {
		t.Fatalf("AdoptFlat of an image ranking %d edge labels = %v, want ErrLabelSpace", MaxEdgeLabels+1, err)
	}

	ov := NewOverlay(g)
	if err := ov.AddEdge(a, b, "extra"); !errors.Is(err, ErrLabelSpace) {
		t.Fatalf("Overlay.AddEdge of label %d = %v, want ErrLabelSpace", MaxEdgeLabels+1, err)
	}
	if err := ov.AddEdge(b, a, "e9"); err != nil {
		t.Fatalf("Overlay.AddEdge of a held label: %v", err)
	}
	if !ov.HasEdge(b, a, ov.Syms().Lookup("e9")) || ov.HasEdge(a, b, ov.Syms().Lookup("extra")) {
		t.Fatal("the overlay's view disagrees with its writes")
	}
}

// TestNodeLabelOverflowRank: node labels past the 65 535th share the
// overflow neighbour rank, inside which entries are ordered by the
// neighbour's label code. Runs keyed by such a label, edge tests to its
// nodes and the order invariant hold on a freeze, on an overlay that adds
// more overflow-ranked labels and edges, and on the flattened view.
func TestNodeLabelOverflowRank(t *testing.T) {
	const labels = overflowRank + 40
	g := New(labels+1, 3*labels)
	hub := g.AddNode("hub", nil)
	// Node i+1 carries a label of its own, hub -[x or y]-> it by parity,
	// and it -[x]-> hub for every third.
	link := func(add func(from, to NodeID, l string), i int, v NodeID) {
		add(hub, v, []string{"x", "y"}[i%2])
		if i%3 == 0 {
			add(v, hub, "x")
		}
	}
	for i := 0; i < labels; i++ {
		link(g.MustAddEdge, i, g.AddNode(fmt.Sprintf("L%d", i), nil))
	}
	check := func(t *testing.T, s *Snapshot) {
		t.Helper()
		requireCSROrder(t, s)
		syms := s.Syms()
		x, y := syms.Lookup("x"), syms.Lookup("y")
		for i := 0; i < s.NumNodes()-1; i++ {
			if i%97 != 0 && i < overflowRank-100 {
				continue // every node near and past the overflow rank, a sample before
			}
			v := NodeID(i + 1)
			l := s.Label(v)
			el := []Sym{x, y}[i%2]
			if run := s.OutWithNbr(hub, el, l); len(run) != 1 || run[0].To != v {
				t.Fatalf("OutWithNbr(hub, %s, %s) = %v, want [%d]", syms.Name(el), syms.Name(l), run, v)
			}
			if run := s.OutWithNbr(hub, []Sym{y, x}[i%2], l); len(run) != 0 {
				t.Fatalf("OutWithNbr(hub, other label, %s) = %v, want none", syms.Name(l), run)
			}
			if !s.HasEdge(hub, v, el) || s.HasEdge(hub, v, []Sym{y, x}[i%2]) {
				t.Fatalf("HasEdge(hub, %d) disagrees with the graph", v)
			}
			if got, want := s.HasEdge(v, hub, x), i%3 == 0; got != want {
				t.Fatalf("HasEdge(%d, hub, x) = %v, want %v", v, got, want)
			}
			if run := s.InWithNbr(hub, x, l); len(run) != b2i(i%3 == 0) {
				t.Fatalf("InWithNbr(hub, x, %s) = %v", syms.Name(l), run)
			}
		}
	}
	s := g.Freeze()
	if s.rank(s.Label(NodeID(labels))).nbr != overflowRank {
		t.Fatal("the last node label does not take the overflow rank")
	}
	t.Run("freeze", func(t *testing.T) { check(t, s) })
	ov := NewOverlay(g)
	for i := labels; i < labels+20; i++ {
		link(ov.MustAddEdge, i, ov.AddNode(fmt.Sprintf("late%d", i), nil))
	}
	t.Run("overlay", func(t *testing.T) { check(t, ov.Snapshot) })
	t.Run("flattened", func(t *testing.T) { check(t, flatten(ov.Snapshot)) })
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
