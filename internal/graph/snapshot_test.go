package graph

import (
	"math/rand"
	"slices"
	"testing"
)

func randomGraph(t *testing.T, seed int64, nodes, edges int) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "_"}
	elabels := []string{"e", "f", "g"}
	g := New(nodes, edges)
	for i := 0; i < nodes; i++ {
		g.AddNode(labels[rng.Intn(len(labels))], Attrs{"val": string(rune('a' + rng.Intn(5)))})
	}
	for i := 0; i < edges; i++ {
		g.MustAddEdge(NodeID(rng.Intn(nodes)), NodeID(rng.Intn(nodes)), elabels[rng.Intn(len(elabels))])
	}
	return g
}

// TestSnapshotMirrorsGraph cross-checks every snapshot accessor against the
// mutable graph it was frozen from.
func TestSnapshotMirrorsGraph(t *testing.T) {
	g := randomGraph(t, 7, 60, 220)
	s := g.Freeze()

	if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: snapshot (%d,%d) vs graph (%d,%d)",
			s.NumNodes(), s.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		if s.LabelName(id) != g.Label(id) {
			t.Fatalf("node %d: label %q vs %q", v, s.LabelName(id), g.Label(id))
		}
		if s.OutDegree(id) != g.OutDegree(id) || s.InDegree(id) != g.InDegree(id) {
			t.Fatalf("node %d: degree mismatch", v)
		}
		if v2, ok := s.Attr(id, "val"); !ok {
			t.Fatalf("node %d: missing val attr in snapshot", v)
		} else if want, _ := g.Attr(id, "val"); v2 != want {
			t.Fatalf("node %d: attr %q vs %q", v, v2, want)
		}
	}
	// Every graph edge must be findable in the snapshot, concrete and
	// wildcard, and the CSR ranges must be in key order.
	g.Edges(func(e Edge) bool {
		l := s.Syms().Lookup(e.Label)
		if !s.HasEdge(e.From, e.To, l) {
			t.Fatalf("edge %v missing from snapshot", e)
		}
		if !s.HasEdge(e.From, e.To, WildcardSym) {
			t.Fatalf("edge %v not found via wildcard", e)
		}
		return true
	})
	requireCSROrder(t, s)
	requireLabelledRuns(t, s)
	// Absent edges must stay absent: every node pair, every edge label.
	for a := 0; a < g.NumNodes(); a++ {
		for b := 0; b < g.NumNodes(); b++ {
			for _, l := range []string{"e", "f", "g"} {
				if got, want := s.HasEdge(NodeID(a), NodeID(b), s.Syms().Lookup(l)), g.HasEdge(NodeID(a), NodeID(b), l); got != want {
					t.Fatalf("HasEdge(%d, %d, %s) = %v, graph says %v", a, b, l, got, want)
				}
			}
		}
	}
	if s.HasEdge(0, 1, NoSym) {
		t.Fatal("NoSym label must match no edge")
	}
	for _, l := range []Sym{WildcardSym, s.Syms().Lookup("e")} {
		if s.HasEdge(0, NodeID(g.NumNodes()), l) {
			t.Fatalf("HasEdge to a node outside the graph, label %d", l)
		}
	}
	// Label classes must equal the graph's label index.
	for _, l := range g.Labels() {
		want := g.NodesWithLabel(l)
		got := s.NodesWithLabel(l)
		if len(want) != len(got) {
			t.Fatalf("label %q: class size %d vs %d", l, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("label %q: class differs at %d", l, i)
			}
		}
		if s.ClassSize(s.Syms().Lookup(l)) != g.LabelCount(l) {
			t.Fatalf("label %q: ClassSize mismatch", l)
		}
	}
	if s.NodesWithLabel("nope") != nil {
		t.Fatal("unknown label must have an empty class")
	}
}

// csrOrderBreak returns the first index of es whose key does not rank its
// neighbour's label in s, or that breaks the adjacency order (key, then
// neighbour, with the neighbour's label code first inside the overflow
// neighbour rank), or -1.
func csrOrderBreak(s *Snapshot, es []CSREdge) int {
	tuple := func(e CSREdge) []int {
		code := 0
		if e.Label&nbrMask == overflowRank {
			code = int(s.Label(e.To))
		}
		return []int{int(e.Label), code, int(e.To)}
	}
	for i, e := range es {
		if e.Label&nbrMask != LabelKey(s.rank(s.Label(e.To)).nbr) {
			return i
		}
		if i > 0 && slices.Compare(tuple(es[i-1]), tuple(e)) > 0 {
			return i
		}
	}
	return -1
}

// requireCSROrder asserts the adjacency order on every node of s, both
// directions.
func requireCSROrder(t *testing.T, s *Snapshot) {
	t.Helper()
	for v := 0; v < s.NumNodes(); v++ {
		if i := csrOrderBreak(s, s.Out(NodeID(v))); i >= 0 {
			t.Fatalf("out adjacency of %d not in key order at %d", v, i)
		}
		if i := csrOrderBreak(s, s.In(NodeID(v))); i >= 0 {
			t.Fatalf("in adjacency of %d not in key order at %d", v, i)
		}
	}
}

// requireLabelledRuns checks OutWithNbr/InWithNbr against a filter of the
// whole range, for every edge label and node label of s including the
// wildcard: the run holds exactly the matching entries, in range order,
// and a run with both labels concrete is To-sorted. OutWith/InWith, keyed
// by an entry, must return its edge-label group.
func requireLabelledRuns(t *testing.T, s *Snapshot) {
	t.Helper()
	codes := []Sym{WildcardSym, NoSym}
	for c := 1; c < s.Syms().Len(); c++ {
		codes = append(codes, Sym(c))
	}
	filter := func(es []CSREdge, l, nl Sym) []CSREdge {
		var out []CSREdge
		for _, e := range es {
			if (l == WildcardSym || s.EdgeLabel(e.Label) == l) && (l == WildcardSym || nl == WildcardSym || s.Label(e.To) == nl) {
				out = append(out, e)
			}
		}
		return out
	}
	for v := 0; v < s.NumNodes(); v++ {
		id := NodeID(v)
		for _, e := range s.Out(id) {
			if got, want := s.OutWith(id, e.Label), filter(s.Out(id), s.EdgeLabel(e.Label), WildcardSym); !slices.Equal(got, want) {
				t.Fatalf("OutWith(%d, %#x) = %v, want %v", v, e.Label, got, want)
			}
		}
		for _, e := range s.In(id) {
			if got, want := s.InWith(id, e.Label), filter(s.In(id), s.EdgeLabel(e.Label), WildcardSym); !slices.Equal(got, want) {
				t.Fatalf("InWith(%d, %#x) = %v, want %v", v, e.Label, got, want)
			}
		}
		for _, l := range codes {
			for _, nl := range codes {
				out, in := s.OutWithNbr(id, l, nl), s.InWithNbr(id, l, nl)
				if want := filter(s.Out(id), l, nl); !slices.Equal(out, want) {
					t.Fatalf("OutWithNbr(%d, %d, %d) = %v, want %v", v, l, nl, out, want)
				}
				if want := filter(s.In(id), l, nl); !slices.Equal(in, want) {
					t.Fatalf("InWithNbr(%d, %d, %d) = %v, want %v", v, l, nl, in, want)
				}
				if l == WildcardSym || nl == WildcardSym {
					continue
				}
				for _, r := range [][]CSREdge{out, in} {
					for i := 1; i < len(r); i++ {
						if r[i].To < r[i-1].To {
							t.Fatalf("run (%d, %d) of node %d not To-sorted: %v", l, nl, v, r)
						}
					}
				}
			}
		}
	}
}

// TestAdoptFlatRejectsLabelToOrder: an image whose adjacency is sorted by
// (edge rank, neighbour) alone — store format 1's order — is not
// adoptable, because the matcher would intersect runs that are not
// To-sorted. The
// large image validates on several shards, and the error must read the
// same with one validation worker and with four.
func TestAdoptFlatRejectsLabelToOrder(t *testing.T) {
	for _, size := range [][2]int{{60, 220}, {4000, 14000}} {
		s := randomGraph(t, 7, size[0], size[1]).Freeze()
		f, err := s.Flat()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := AdoptFlat(f); err != nil {
			t.Fatalf("fresh image rejected: %v", err)
		}
		out := slices.Clone(f.Out)
		for v := 0; v+1 < len(f.OutOff); v++ {
			slices.SortFunc(out[f.OutOff[v]:f.OutOff[v+1]], func(a, b CSREdge) int {
				if ea, eb := a.Label>>nbrBits, b.Label>>nbrBits; ea != eb {
					return int(ea) - int(eb)
				}
				return int(a.To - b.To)
			})
		}
		if slices.Equal(out, f.Out) {
			t.Fatal("no node has a run the two orders disagree on; the test is vacuous")
		}
		f.Out = out
		if _, err := AdoptFlat(f); err == nil {
			t.Fatalf("AdoptFlat accepted (label, neighbour)-ordered adjacency (|V| = %d)", size[0])
		}
		var errs []string
		for _, w := range []int{1, 4} {
			_, _, _, err := f.validate(w, nil)
			if err == nil {
				t.Fatalf("validation accepted (label, neighbour)-ordered adjacency (|V| = %d, %d workers)", size[0], w)
			}
			errs = append(errs, err.Error())
		}
		if errs[0] != errs[1] {
			t.Fatalf("|V| = %d: error depends on the worker count:\n 1 worker:  %s\n 4 workers: %s", size[0], errs[0], errs[1])
		}
	}
}

// TestSnapshotNeighborhood checks the CSR BFS against the map-based one.
func TestSnapshotNeighborhood(t *testing.T) {
	g := randomGraph(t, 13, 80, 200)
	s := g.Freeze()
	for v := 0; v < g.NumNodes(); v += 7 {
		for c := 0; c <= 3; c++ {
			want := mapNeighborhood(g, NodeID(v), c)
			got := s.Neighborhood(NodeID(v), c)
			if len(want) != len(got) {
				t.Fatalf("node %d c=%d: %d vs %d nodes", v, c, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("node %d c=%d: differs at %d", v, c, i)
				}
			}
		}
	}
}

// mapNeighborhood is the reference for TestSnapshotNeighborhood: a
// breadth-first search over a building graph's adjacency maps, sorted.
func mapNeighborhood(g *Graph, start NodeID, c int) []NodeID {
	visited := map[NodeID]struct{}{start: {}}
	frontier := []NodeID{start}
	for hop := 0; hop < c && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, v := range frontier {
			for _, hes := range [2][]HalfEdge{g.out[v], g.in[v]} {
				for _, he := range hes {
					if _, seen := visited[he.To]; !seen {
						visited[he.To] = struct{}{}
						next = append(next, he.To)
					}
				}
			}
		}
		frontier = next
	}
	out := make([]NodeID, 0, len(visited))
	for v := range visited {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestFreezeCache verifies snapshots are cached until the next mutation.
func TestFreezeCache(t *testing.T) {
	g := randomGraph(t, 3, 10, 20)
	s1 := g.Freeze()
	if g.Freeze() != s1 {
		t.Fatal("Freeze rebuilt despite no mutation")
	}
	g.SetAttr(0, "val", "changed")
	s2 := g.Freeze()
	if s2 == s1 {
		t.Fatal("Freeze returned a stale snapshot after SetAttr")
	}
	if v, _ := s2.Attr(0, "val"); v != "changed" {
		t.Fatalf("refrozen snapshot sees %q, want %q", v, "changed")
	}
	g.AddNode("z", nil)
	if g.Freeze() == s2 {
		t.Fatal("Freeze returned a stale snapshot after AddNode")
	}
	g.MustAddEdge(0, 1, "new")
	s3 := g.Freeze()
	if !s3.HasEdge(0, 1, s3.Syms().Lookup("new")) {
		t.Fatal("refrozen snapshot misses the new edge")
	}
	g.Relabel(0, "w")
	if g.Freeze() == s3 {
		t.Fatal("Freeze returned a stale snapshot after Relabel")
	}
	// Clones must not share the cache.
	c := g.Clone()
	if c.Freeze() == g.Freeze() {
		t.Fatal("clone shares its parent's snapshot")
	}
}

// TestNewEdgeHint covers the previously-discarded edge capacity hint.
func TestNewEdgeHint(t *testing.T) {
	g := New(4, 40)
	for i := 0; i < 4; i++ {
		g.AddNode("n", nil)
	}
	g.MustAddEdge(0, 1, "e")
	if c := cap(g.out[0]); c < 10 {
		t.Fatalf("out adjacency capacity %d; want >= 10 (edgeHint/nodeHint)", c)
	}
	if c := cap(g.in[1]); c < 10 {
		t.Fatalf("in adjacency capacity %d; want >= 10", c)
	}
	// Degenerate hints must not presize (or crash).
	g2 := New(0, 0)
	g2.AddNode("n", nil)
	g2.AddNode("n", nil)
	g2.MustAddEdge(0, 1, "e")
	if g2.NumEdges() != 1 {
		t.Fatal("zero-hint graph broken")
	}
}
