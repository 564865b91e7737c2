package graph

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
)

// overlayBaseGraph builds a small deterministic property graph to stack
// overlays on.
func overlayBaseGraph() *Graph {
	g := New(8, 12)
	labels := []string{"person", "city", "person", "company", "city", "person"}
	for i, l := range labels {
		g.AddNode(l, Attrs{"val": fmt.Sprintf("v%d", i)})
	}
	g.MustAddEdge(0, 1, "lives_in")
	g.MustAddEdge(2, 1, "lives_in")
	g.MustAddEdge(0, 3, "works_at")
	g.MustAddEdge(2, 3, "works_at")
	g.MustAddEdge(3, 4, "based_in")
	g.MustAddEdge(5, 4, "lives_in")
	return g
}

// edgeKey renders an adjacency entry with its label name so views over
// different symbol tables can be compared.
func edgeKey(s *Snapshot, e CSREdge) string {
	return fmt.Sprintf("%s->%d", s.Syms().Name(s.EdgeLabel(e.Label)), e.To)
}

// neighbours renders the To column of an adjacency range, in order.
func neighbours(es []CSREdge) string {
	ids := make([]NodeID, len(es))
	for i, e := range es {
		ids[i] = e.To
	}
	return fmt.Sprint(ids)
}

// twinStream applies one update stream twice: through an overlay, and
// directly to a twin graph built from the same base. The overlay's graph
// never receives the writes (the overlay owns its delta), so the twin's
// fresh freeze is the oracle for the view and for its compaction.
type twinStream struct {
	ov   *Overlay
	twin *Graph
}

// newTwinStream stacks an overlay on overlayBaseGraph, heap-built or, when
// adopted is set, adopted from its flat image as a store-opened graph is.
func newTwinStream(t testing.TB, adopted bool) twinStream {
	t.Helper()
	g := overlayBaseGraph()
	if adopted {
		f, err := g.Freeze().Flat()
		if err != nil {
			t.Fatal(err)
		}
		s, err := AdoptFlat(f)
		if err != nil {
			t.Fatal(err)
		}
		g = s.Graph()
	}
	return twinStream{ov: NewOverlay(g), twin: overlayBaseGraph()}
}

func (w twinStream) addNode(label string, attrs Attrs) NodeID {
	id := w.ov.AddNode(label, attrs.Clone())
	if tid := w.twin.AddNode(label, attrs.Clone()); tid != id {
		panic(fmt.Sprintf("overlay assigned node %d, twin %d", id, tid))
	}
	return id
}

func (w twinStream) addEdge(from, to NodeID, label string) {
	w.ov.MustAddEdge(from, to, label)
	w.twin.MustAddEdge(from, to, label)
}

func (w twinStream) setAttr(v NodeID, a, val string) {
	w.ov.SetAttr(v, a, val)
	w.twin.SetAttr(v, a, val)
}

// assertViewMatchesFreeze checks every observable a view serves (an
// overlay's patched view, or the flat snapshot a compaction produced)
// against a fresh freeze of the twin graph: the two must be
// indistinguishable by names.
func assertViewMatchesFreeze(t *testing.T, v *Snapshot, twin *Graph) {
	t.Helper()
	snap := twin.BuildSnapshot(1) // bypass the cache: the oracle must be fresh
	if v.NumNodes() != snap.NumNodes() {
		t.Fatalf("NumNodes: view %d, freeze %d", v.NumNodes(), snap.NumNodes())
	}
	if v.NumEdges() != snap.NumEdges() {
		t.Fatalf("NumEdges: view %d, freeze %d", v.NumEdges(), snap.NumEdges())
	}
	osyms, ssyms := v.Syms(), snap.Syms()
	var edgeLabels []string
	seen := map[string]bool{}
	twin.Edges(func(e Edge) bool {
		if !seen[e.Label] {
			seen[e.Label] = true
			edgeLabels = append(edgeLabels, e.Label)
		}
		return true
	})
	keys := func(s *Snapshot, es []CSREdge) []string {
		out := make([]string, len(es))
		for i := range es {
			out[i] = edgeKey(s, es[i])
		}
		sort.Strings(out)
		return out
	}
	for u := 0; u < snap.NumNodes(); u++ {
		id := NodeID(u)
		if got, want := osyms.Name(v.Label(id)), ssyms.Name(snap.Label(id)); got != want {
			t.Fatalf("Label(%d): view %q, freeze %q", u, got, want)
		}
		if v.OutDegree(id) != snap.OutDegree(id) || v.InDegree(id) != snap.InDegree(id) {
			t.Fatalf("degrees of %d: view (%d, %d), freeze (%d, %d)", u,
				v.OutDegree(id), v.InDegree(id), snap.OutDegree(id), snap.InDegree(id))
		}
		// Adjacency must agree as an edge multiset; the within-node order
		// may differ between the views because each is sorted by its own
		// table's label codes (the overlay interns late-arriving labels at
		// higher codes than a fresh freeze would). Per-view sortedness —
		// what the binary searches rely on — is asserted separately. Each
		// label's subrange is To-sorted in both views, so it compares as is.
		for dir, pair := range map[string][2][]CSREdge{
			"out": {v.Out(id), snap.Out(id)},
			"in":  {v.In(id), snap.In(id)},
		} {
			oes := pair[0]
			if i := csrOrderBreak(v, oes); i >= 0 {
				t.Fatalf("%s adjacency of %d not in key order at %d", dir, u, i)
			}
			if got, want := fmt.Sprint(keys(v, oes)), fmt.Sprint(keys(snap, pair[1])); got != want {
				t.Fatalf("%s adjacency of %d: view %s, freeze %s", dir, u, got, want)
			}
		}
		for _, name := range edgeLabels {
			ol, sl := osyms.Lookup(name), ssyms.Lookup(name)
			if got, want := fmt.Sprint(keys(v, v.OutWithNbr(id, ol, WildcardSym))), fmt.Sprint(keys(snap, snap.OutWithNbr(id, sl, WildcardSym))); got != want {
				t.Fatalf("OutWith(%d, %s): view %s, freeze %s", u, name, got, want)
			}
			if got, want := fmt.Sprint(keys(v, v.InWithNbr(id, ol, WildcardSym))), fmt.Sprint(keys(snap, snap.InWithNbr(id, sl, WildcardSym))); got != want {
				t.Fatalf("InWith(%d, %s): view %s, freeze %s", u, name, got, want)
			}
			// A run with both labels concrete is To-sorted in both views,
			// so its neighbours compare in order, not as a set.
			for _, label := range twin.Labels() {
				onl, snl := osyms.Lookup(label), ssyms.Lookup(label)
				if got, want := neighbours(v.OutWithNbr(id, ol, onl)), neighbours(snap.OutWithNbr(id, sl, snl)); got != want {
					t.Fatalf("OutWithNbr(%d, %s, %s): view %s, freeze %s", u, name, label, got, want)
				}
				if got, want := neighbours(v.InWithNbr(id, ol, onl)), neighbours(snap.InWithNbr(id, sl, snl)); got != want {
					t.Fatalf("InWithNbr(%d, %s, %s): view %s, freeze %s", u, name, label, got, want)
				}
			}
		}
		// Attribute tuples: the twin's map, the interned pairs, and the
		// string-keyed read must all agree.
		attrs := twin.NodeAttrs(id)
		ps := v.AttrPairs(id)
		if len(ps) != len(attrs) {
			t.Fatalf("AttrPairs(%d): view holds %d pairs, twin %d", u, len(ps), len(attrs))
		}
		for i, p := range ps {
			if i > 0 && ps[i-1].Name >= p.Name {
				t.Fatalf("AttrPairs(%d) not strictly sorted by name at %d", u, i)
			}
			if want, ok := attrs[osyms.Name(p.Name)]; !ok || osyms.Name(p.Val) != want {
				t.Fatalf("AttrPairs(%d): pair %s=%s, twin %q", u, osyms.Name(p.Name), osyms.Name(p.Val), want)
			}
		}
		for name, want := range attrs {
			sym, ok := v.AttrSym(id, osyms.Lookup(name))
			if !ok || osyms.Name(sym) != want {
				t.Fatalf("AttrSym(%d, %s): view %q (%v), twin %q", u, name, osyms.Name(sym), ok, want)
			}
			if got, _ := v.Attr(id, name); got != want {
				t.Fatalf("Attr(%d, %s): view %q, twin %q", u, name, got, want)
			}
		}
	}
	assertHolders(t, v, snap, twin)
	// The heavy-node list: a view re-ranks its base list with the nodes it
	// touched, which must give the list a fresh freeze records.
	snap.recordHeavy()
	if got, want := v.Heavy(), snap.Heavy(); !slices.Equal(got, want) {
		t.Fatalf("Heavy: view %v, freeze %v", got, want)
	}
	// Candidate classes: same node sets, ascending, sizes consistent.
	for _, label := range twin.Labels() {
		ol, sl := osyms.Lookup(label), ssyms.Lookup(label)
		oc := v.NodesWith(ol)
		sc := snap.NodesWith(sl)
		if fmt.Sprint(oc) != fmt.Sprint(sc) {
			t.Fatalf("NodesWith(%s): view %v, freeze %v", label, oc, sc)
		}
		if !sort.SliceIsSorted(oc, func(i, j int) bool { return oc[i] < oc[j] }) {
			t.Fatalf("NodesWith(%s) not ascending: %v", label, oc)
		}
		if v.ClassSize(ol) != len(oc) {
			t.Fatalf("ClassSize(%s) = %d, class has %d", label, v.ClassSize(ol), len(oc))
		}
	}
	// Edge existence and neighborhoods, spot-checked over every node pair
	// on small graphs (capped for fuzz inputs that grew the graph).
	n := snap.NumNodes()
	cap := n
	if cap > 24 {
		cap = 24
	}
	for a := 0; a < cap; a++ {
		for b := 0; b < cap; b++ {
			from, to := NodeID(a), NodeID(b)
			if got, want := v.HasEdge(from, to, WildcardSym), snap.HasEdge(from, to, WildcardSym); got != want {
				t.Fatalf("HasEdge(%d, %d, _): view %v, freeze %v", a, b, got, want)
			}
			for _, name := range edgeLabels {
				if got, want := v.HasEdge(from, to, osyms.Lookup(name)), snap.HasEdge(from, to, ssyms.Lookup(name)); got != want {
					t.Fatalf("HasEdge(%d, %d, %s): view %v, freeze %v", a, b, name, got, want)
				}
			}
		}
		for c := 0; c <= 2; c++ {
			if got, want := fmt.Sprint(v.Neighborhood(NodeID(a), c)), fmt.Sprint(snap.Neighborhood(NodeID(a), c)); got != want {
				t.Fatalf("Neighborhood(%d, %d): view %s, freeze %s", a, c, got, want)
			}
			oset, sset := NewEpochSet(v.NumNodes()), NewEpochSet(snap.NumNodes())
			v.BlockInto(oset, NodeID(a), c)
			snap.BlockInto(sset, NodeID(a), c)
			om := append([]NodeID(nil), oset.Members()...)
			sm := append([]NodeID(nil), sset.Members()...)
			slices.Sort(om)
			slices.Sort(sm)
			if fmt.Sprint(om) != fmt.Sprint(sm) {
				t.Fatalf("BlockInto(%d, %d): view %v, freeze %v", a, c, om, sm)
			}
		}
	}
}

// bruteHolders filters NodesWith(l) by AttrSym: the holders by definition.
func bruteHolders(s *Snapshot, l, a, val Sym) []NodeID {
	var out []NodeID
	for _, v := range s.NodesWith(l) {
		if x, ok := s.AttrSym(v, a); ok && x == val {
			out = append(out, v)
		}
	}
	return out
}

// assertHolders checks AppendAttrHolders on view v for every (label,
// attribute, value) the twin carries, and one value no node holds: it
// must equal snap's answer (a fresh freeze of the twin) and the
// brute-force filter of v's class, appended after what dst already held.
func assertHolders(t *testing.T, v, snap *Snapshot, twin *Graph) {
	t.Helper()
	type triple struct{ label, attr, val string }
	seen := map[triple]bool{}
	for u := 0; u < twin.NumNodes(); u++ {
		id := NodeID(u)
		for a, val := range twin.NodeAttrs(id) {
			seen[triple{twin.Label(id), a, val}] = true
			seen[triple{twin.Label(id), a, "held by none"}] = true
		}
	}
	osyms, ssyms := v.Syms(), snap.Syms()
	prefix := []NodeID{-7}
	for c := range seen {
		ol, oa, ov := osyms.Lookup(c.label), osyms.Lookup(c.attr), osyms.Lookup(c.val)
		got := v.AppendAttrHolders(slices.Clone(prefix), ol, oa, ov)
		if got[0] != prefix[0] {
			t.Fatalf("holders of %v overwrote dst", c)
		}
		got = got[1:]
		want := snap.AppendAttrHolders(nil, ssyms.Lookup(c.label), ssyms.Lookup(c.attr), ssyms.Lookup(c.val))
		if !slices.Equal(got, want) {
			t.Fatalf("holders of %v: view %v, freeze %v", c, got, want)
		}
		if brute := bruteHolders(v, ol, oa, ov); !slices.Equal(got, brute) {
			t.Fatalf("holders of %v: view %v, its filtered class %v", c, got, brute)
		}
	}
}

// assertCompaction checks the compaction oracle on a stream's graph:
// Freeze flattens the overlay's view into a frozen snapshot (one counted
// build) that keeps the live symbol table, equals the twin's fresh freeze
// by names, and has a valid flat image; the graph's live overlay still
// serves the same graph.
func assertCompaction(t *testing.T, w twinStream) {
	t.Helper()
	g := w.ov.Graph()
	builds := g.SnapshotBuilds()
	flat := g.Freeze()
	if w.ov.Delta() > 0 {
		builds++
	}
	if got := g.SnapshotBuilds(); got != builds {
		t.Fatalf("compaction counted %d snapshot builds, want %d", got, builds)
	}
	if flat.patch != nil {
		t.Fatal("compaction returned a patched view")
	}
	if flat.Syms() != w.ov.Syms() {
		t.Fatal("compaction must keep the live symbol table")
	}
	requireCSROrder(t, flat)
	assertViewMatchesFreeze(t, flat, w.twin)
	f, err := flat.Flat()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := f.validate(1, nil); err != nil {
		t.Fatalf("compacted image invalid: %v", err)
	}
	assertViewMatchesFreeze(t, NewOverlay(g).Snapshot, w.twin)
}

func TestOverlayMirrorsUpdates(t *testing.T) {
	for _, adopted := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopted=%v", adopted), func(t *testing.T) {
			w := newTwinStream(t, adopted)
			ov, g := w.ov, w.ov.Graph()
			if !ov.Synced() {
				t.Fatal("fresh overlay must be synced")
			}
			assertViewMatchesFreeze(t, ov.Snapshot, w.twin)

			// New node with a new label and attribute values.
			id := w.addNode("country", Attrs{"val": "AU", "pop": "26m"})
			if id != 6 {
				t.Fatalf("AddNode id = %d, want 6", id)
			}
			// Edges touching frozen and fresh nodes, including a new edge label.
			w.addEdge(1, id, "in_country")
			w.addEdge(id, 4, "contains")
			w.addEdge(0, 1, "visits") // second labeled edge on a frozen pair
			// Attribute upsert on a frozen node (copy-on-write over the arena)
			// and on the fresh node.
			w.setAttr(2, "val", "rewritten")
			w.setAttr(id, "val", "Australia")
			// A late node of a label the first check already read: the view must
			// not serve a class cached before it.
			w.addNode("city", Attrs{"val": "late"})
			// An inserted node with no edges and no attributes reads empty
			// through its zero slots; nodes 2 and 5 are touched by SetAttr
			// alone, node 0 in its out direction only, node 4 in its in
			// direction only.
			bare := w.addNode("person", nil)
			w.setAttr(5, "pop", "1")
			p := ov.patch
			for _, c := range []struct {
				v             NodeID
				out, in, attr bool
			}{
				{bare, false, false, false},
				{5, false, false, true},
				{2, false, false, true},
				{0, true, false, false},
				{4, false, true, false},
				{1, true, true, false},
				{id, true, true, true},
			} {
				if got := [3]bool{p.outSlot[c.v] != 0, p.inSlot[c.v] != 0, p.attrSlot[c.v] != 0}; got != [3]bool{c.out, c.in, c.attr} {
					t.Fatalf("node %d holds (out, in, attr) slots %v, want %v", c.v, got, [3]bool{c.out, c.in, c.attr})
				}
			}
			if want := []NodeID{1, id, 4, 0}; !slices.Equal(p.touched, want) {
				t.Fatalf("touched nodes %v, want %v", p.touched, want)
			}
			if !ov.Synced() {
				t.Fatal("overlay must stay synced through its own mutators")
			}
			assertViewMatchesFreeze(t, ov.Snapshot, w.twin)
			// The graph is sealed over the view.
			if g.sealed.Load() != ov.Snapshot {
				t.Fatal("an overlay write must seal the graph over its view")
			}
			if g.NumNodes() != w.twin.NumNodes() || g.NumEdges() != w.twin.NumEdges() {
				t.Fatalf("graph reads |V|=%d |E|=%d, twin %d %d", g.NumNodes(), g.NumEdges(), w.twin.NumNodes(), w.twin.NumEdges())
			}

			if ov.Delta() == 0 {
				t.Error("delta must grow with patches")
			}
			if frac := ov.deltaFraction(); frac <= 0 {
				t.Errorf("delta fraction = %v, want > 0", frac)
			}

			// A direct mutation of the sealed graph is a write through its
			// live overlay: the overlay stays synced and the read source,
			// the version moves, and no snapshot is built.
			builds, version := g.SnapshotBuilds(), g.Version()
			g.SetAttr(0, "val", "behind-the-back")
			w.twin.SetAttr(0, "val", "behind-the-back")
			late := g.AddNode("city", Attrs{"val": "direct"})
			if tid := w.twin.AddNode("city", Attrs{"val": "direct"}); tid != late {
				t.Fatalf("direct AddNode assigned %d, twin %d", late, tid)
			}
			g.MustAddEdge(late, 0, "visits")
			w.twin.MustAddEdge(late, 0, "visits")
			if err := g.AddEdge(0, late+1, "visits"); err == nil {
				t.Error("direct AddEdge to a node past the view succeeded")
			}
			if !ov.Synced() || g.LiveOverlay() != ov || g.sealed.Load() != ov.Snapshot {
				t.Fatal("a direct mutation of a sealed graph must write through its live overlay")
			}
			if g.Version() != version+3 || g.SnapshotBuilds() != builds {
				t.Fatalf("three direct writes moved the version by %d and built %d snapshots, want 3 and 0",
					g.Version()-version, g.SnapshotBuilds()-builds)
			}
			assertViewMatchesFreeze(t, ov.Snapshot, w.twin)
			assertViewMatchesFreeze(t, g.Freeze(), w.twin)
		})
	}
}

// TestHollowGraphReadsMatchTwin: every *Graph read of a sealed graph
// answers from its read source like the building twin, on a graph sealed
// by adoption, and on a heap-built or adopted graph sealed by an overlay
// write; no read moves the read source. Clone of a sealed graph is a
// building graph equal to the twin, and leaves the original sealed.
func TestHollowGraphReadsMatchTwin(t *testing.T) {
	for _, adopted := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopted=%v", adopted), func(t *testing.T) {
			w := newTwinStream(t, adopted)
			g := w.ov.Graph()
			if g.Sealed() != adopted {
				t.Fatalf("Sealed() = %v before any write, want %v: adoption alone seals", g.Sealed(), adopted)
			}
			if adopted {
				requireReadsMatch(t, g, w.twin)
			}
			id := w.addNode("country", Attrs{"val": "AU"})
			w.addEdge(1, id, "in_country")
			w.addEdge(id, 4, "contains")
			w.addEdge(0, 1, "visits")
			w.setAttr(2, "val", "rewritten")
			w.setAttr(id, "pop", "26m")
			if g.sealed.Load() != w.ov.Snapshot {
				t.Fatal("an overlay write must seal the graph over its view")
			}
			requireReadsMatch(t, g, w.twin)
			if g.sealed.Load() != w.ov.Snapshot || !w.ov.Synced() {
				t.Fatal("reads must leave the read source and the overlay as they were")
			}

			c := g.Clone()
			if c.Sealed() || g.sealed.Load() != w.ov.Snapshot {
				t.Fatal("Clone must return a building graph and leave the original sealed")
			}
			requireReadsMatch(t, c, w.twin)
			assertViewMatchesFreeze(t, c.Freeze(), w.twin)
			c.SetAttr(0, "val", "clone-only")
			c.AddNode("city", nil)
			if got, _ := g.Attr(0, "val"); got == "clone-only" || g.NumNodes() != w.twin.NumNodes() {
				t.Fatal("a write to the clone reached the original")
			}
			for name, op := range map[string]func(){
				"Relabel":       func() { g.Relabel(0, "city") },
				"BuildSnapshot": func() { g.BuildSnapshot(1) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s on a sealed graph did not panic", name)
						}
					}()
					op()
				}()
			}
		})
	}
}

// sortedHalfEdges renders an adjacency list as a sorted multiset: a
// sealed graph lists it in snapshot order, a building one in insertion
// order.
func sortedHalfEdges(es []HalfEdge) string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%s>%d", e.Label, e.To)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// requireReadsMatch compares every *Graph read of g with the building
// twin's.
func requireReadsMatch(t *testing.T, g, twin *Graph) {
	t.Helper()
	n := twin.NumNodes()
	if g.NumNodes() != n || g.NumEdges() != twin.NumEdges() || g.Size() != twin.Size() || g.String() != twin.String() {
		t.Fatalf("graph %v (size %d), twin %v (size %d)", g, g.Size(), twin, twin.Size())
	}
	if g.Has(NodeID(n)) || !g.Has(NodeID(n-1)) || g.Has(-1) {
		t.Fatal("Has disagrees with NumNodes")
	}
	labels := append(twin.Labels(), "never-interned")
	if got, want := g.Labels(), twin.Labels(); !slices.Equal(got, want) {
		t.Fatalf("Labels() = %v, twin %v", got, want)
	}
	for _, l := range labels {
		if got, want := g.NodesWithLabel(l), twin.NodesWithLabel(l); !slices.Equal(got, want) || g.LabelCount(l) != twin.LabelCount(l) {
			t.Fatalf("NodesWithLabel(%s) = %v (count %d), twin %v (count %d)", l, got, g.LabelCount(l), want, twin.LabelCount(l))
		}
	}
	edgeLabels := []string{"never-interned", "_"}
	seen := map[string]bool{}
	var edges, twinEdges []string
	twin.Edges(func(e Edge) bool {
		if !seen[e.Label] {
			seen[e.Label] = true
			edgeLabels = append(edgeLabels, e.Label)
		}
		twinEdges = append(twinEdges, fmt.Sprint(e))
		return true
	})
	g.Edges(func(e Edge) bool {
		edges = append(edges, fmt.Sprint(e))
		return true
	})
	sort.Strings(edges)
	sort.Strings(twinEdges)
	if !slices.Equal(edges, twinEdges) {
		t.Fatalf("Edges = %v, twin %v", edges, twinEdges)
	}
	for v := 0; v < n; v++ {
		id := NodeID(v)
		if g.Label(id) != twin.Label(id) {
			t.Fatalf("Label(%d) = %q, twin %q", v, g.Label(id), twin.Label(id))
		}
		if got, want := g.NodeAttrs(id), twin.NodeAttrs(id); !maps.Equal(got, want) {
			t.Fatalf("NodeAttrs(%d) = %v, twin %v", v, got, want)
		}
		for _, a := range []string{"val", "pop", "never-interned"} {
			gv, gok := g.Attr(id, a)
			tv, tok := twin.Attr(id, a)
			if gv != tv || gok != tok {
				t.Fatalf("Attr(%d, %s) = %q %v, twin %q %v", v, a, gv, gok, tv, tok)
			}
		}
		if got, want := sortedHalfEdges(g.Out(id)), sortedHalfEdges(twin.Out(id)); got != want {
			t.Fatalf("Out(%d) = %s, twin %s", v, got, want)
		}
		if got, want := sortedHalfEdges(g.In(id)), sortedHalfEdges(twin.In(id)); got != want {
			t.Fatalf("In(%d) = %s, twin %s", v, got, want)
		}
		if g.OutDegree(id) != twin.OutDegree(id) || g.InDegree(id) != twin.InDegree(id) || g.Degree(id) != twin.Degree(id) {
			t.Fatalf("degrees of %d differ from the twin's", v)
		}
		for u := 0; u < n; u++ {
			to := NodeID(u)
			if g.HasEdgeAnyLabel(id, to) != twin.HasEdgeAnyLabel(id, to) {
				t.Fatalf("HasEdgeAnyLabel(%d, %d) = %v, twin %v", v, u, g.HasEdgeAnyLabel(id, to), twin.HasEdgeAnyLabel(id, to))
			}
			for _, l := range edgeLabels {
				if g.HasEdge(id, to, l) != twin.HasEdge(id, to, l) {
					t.Fatalf("HasEdge(%d, %d, %s) = %v, twin %v", v, u, l, g.HasEdge(id, to, l), twin.HasEdge(id, to, l))
				}
			}
		}
		for c := 0; c <= 2; c++ {
			if got, want := g.Neighborhood(id, c), twin.Neighborhood(id, c); !slices.Equal(got, want) {
				t.Fatalf("Neighborhood(%d, %d) = %v, twin %v", v, c, got, want)
			}
		}
	}
}

// TestSettleRetiresOverlay pins the graph-owned lifecycle: NewOverlay
// hands every caller the one live overlay; Settle keeps it below
// CompactFraction; past the fraction Settle flattens the view once, retires
// the overlay (its writes fail with ErrStaleOverlay although no version
// moved) and makes a fresh overlay over the flat snapshot the live one. A
// direct mutation of the sealed graph writes through the live overlay; on
// a building graph it retires an overlay that has not written, and the
// graph drops it.
func TestSettleRetiresOverlay(t *testing.T) {
	for _, adopted := range []bool{false, true} {
		t.Run(fmt.Sprintf("adopted=%v", adopted), func(t *testing.T) {
			w := newTwinStream(t, adopted)
			g := w.ov.Graph()
			if NewOverlay(g) != w.ov || g.LiveOverlay() != w.ov {
				t.Fatal("NewOverlay must return the graph's live overlay")
			}
			id := w.addNode("city", Attrs{"val": "late"}) // delta 2 of a base of 12
			w.ov.Settle()
			if !w.ov.Synced() || NewOverlay(g) != w.ov {
				t.Fatal("Settle below the fraction must keep the overlay live")
			}
			w.addEdge(0, id, "lives_in")
			w.setAttr(2, "val", "rewritten") // delta 4 of 12
			builds, version := g.SnapshotBuilds(), g.Version()
			w.ov.Settle()
			if got := g.SnapshotBuilds() - builds; got != 1 {
				t.Fatalf("compaction built %d snapshots, want 1", got)
			}
			if g.Version() != version {
				t.Fatal("compaction must not move the graph's version")
			}
			if w.ov.Synced() || g.LiveOverlay() == w.ov {
				t.Fatal("a compacted overlay must retire")
			}
			if err := w.ov.AddEdge(0, 1, "visits"); !errors.Is(err, ErrStaleOverlay) {
				t.Fatalf("AddEdge through a retired overlay: %v, want ErrStaleOverlay", err)
			}
			for name, write := range map[string]func(){
				"AddNode": func() { w.ov.AddNode("city", nil) },
				"SetAttr": func() { w.ov.SetAttr(0, "val", "lost") },
			} {
				func() {
					defer func() {
						if r := recover(); r != ErrStaleOverlay {
							t.Errorf("%s through a retired overlay recovered %v, want ErrStaleOverlay", name, r)
						}
					}()
					write()
				}()
			}
			live := NewOverlay(g)
			if live == w.ov || g.LiveOverlay() != live || live.Delta() != 0 {
				t.Fatal("compaction must start a fresh live overlay")
			}
			if live.Base() != g.Freeze() || g.sealed.Load() != live.Base() || g.SnapshotBuilds() != builds+1 {
				t.Fatal("the fresh overlay must patch the flattened snapshot, built once")
			}
			next := twinStream{ov: live, twin: w.twin}
			next.addEdge(id, 4, "lives_in")
			assertViewMatchesFreeze(t, live.Snapshot, w.twin)

			g.SetAttr(0, "val", "direct")
			w.twin.SetAttr(0, "val", "direct")
			if !live.Synced() || g.LiveOverlay() != live || live.Delta() != 2 {
				t.Fatal("a direct mutation of a sealed graph must write through the live overlay")
			}
			assertViewMatchesFreeze(t, live.Snapshot, w.twin)
		})
	}

	g := overlayBaseGraph()
	ov := NewOverlay(g)
	g.SetAttr(0, "val", "direct")
	if ov.Synced() || g.LiveOverlay() != nil || g.live.Load() != nil || g.Sealed() {
		t.Fatal("a direct mutation of a building graph must retire its unwritten overlay, and the graph drop it")
	}
	if fresh := NewOverlay(g); fresh == ov || !fresh.Synced() {
		t.Fatal("NewOverlay after a direct mutation must start a synced overlay")
	}
}

// TestConcurrentNewOverlayStartsOne is the -race target for the live
// overlay: callers asking for a graph's overlay at once, through
// NewOverlay or LiveOverlay, all see the one overlay, started once.
func TestConcurrentNewOverlayStartsOne(t *testing.T) {
	g := overlayBaseGraph()
	got := make([]*Overlay, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				g.LiveOverlay() // nil or the live one; never starts one
			}
			got[i] = NewOverlay(g)
		}(i)
	}
	wg.Wait()
	for _, o := range got[1:] {
		if o != got[0] {
			t.Fatal("concurrent NewOverlay calls started more than one overlay")
		}
	}
	if g.LiveOverlay() != got[0] || g.SnapshotBuilds() != 1 {
		t.Fatalf("live overlay %p (want %p), %d builds (want 1)", g.LiveOverlay(), got[0], g.SnapshotBuilds())
	}
}

// TestConcurrentHolderReads is the -race target for a view's holder reads
// and its base's holder cache: after each batch of fresh writes,
// goroutines read the holders of one value at once, the first of them
// filling the cache while the others wait for it, and all of them must see
// the filtered class. Its second row writes what a view must re-check
// rather than remember: a copied tuple that gains an attribute, an
// attributed insert overwritten and written back, and a write to a node
// inserted without attributes.
func TestConcurrentHolderReads(t *testing.T) {
	for _, tc := range []struct {
		name             string
		write            func(ov *Overlay, batch int)
		label, attr, val string
	}{
		{"values", func(ov *Overlay, batch int) {
			ov.SetAttr(NodeID(batch), "val", "v2")
			ov.AddNode("person", Attrs{"val": "v2"})
			ov.SetAttr(2, "val", []string{"v2", "v5"}[batch%2])
		}, "person", "val", "v2"},
		{"rewrites", func(ov *Overlay, batch int) {
			ov.SetAttr(NodeID(batch), "val", "v9")
			ov.SetAttr(NodeID(batch), "pop", "p1")
			id := ov.AddNode("person", Attrs{"pop": "p1"})
			ov.SetAttr(id, "pop", "p0")
			ov.SetAttr(id, "pop", "p1")
			ov.SetAttr(ov.AddNode("person", nil), "pop", "p1")
		}, "person", "pop", "p1"},
	} {
		ov := NewOverlay(overlayBaseGraph())
		syms := ov.Syms()
		for batch := 0; batch < 4; batch++ {
			tc.write(ov, batch)
			l, a, val := syms.Lookup(tc.label), syms.Lookup(tc.attr), syms.Lookup(tc.val)
			want := bruteHolders(ov.Snapshot, l, a, val)
			got := make([][]NodeID, 8)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = ov.AppendAttrHolders(nil, l, a, val)
				}(i)
			}
			wg.Wait()
			for i, h := range got {
				if !slices.Equal(h, want) {
					t.Fatalf("%s, batch %d, reader %d: holders %v, filtered class %v", tc.name, batch, i, h, want)
				}
			}
		}
	}
}

// TestOverlayRejectsMissingNodes: the overlay checks node IDs against its
// view, since no graph mutator does it any more.
func TestOverlayRejectsMissingNodes(t *testing.T) {
	ov := NewOverlay(overlayBaseGraph())
	id := ov.AddNode("city", nil)
	if err := ov.AddEdge(0, id+1, "lives_in"); err == nil {
		t.Error("AddEdge to a node past the view succeeded")
	}
	if err := ov.AddEdge(-1, 0, "lives_in"); err == nil {
		t.Error("AddEdge from a negative node succeeded")
	}
	ov.MustAddEdge(0, id, "lives_in") // an inserted node is in range
	defer func() {
		if recover() == nil {
			t.Error("SetAttr on a node past the view did not panic")
		}
	}()
	ov.SetAttr(id+1, "val", "x")
}

// TestOverlayRunsOnInsertedNodes covers edges at nodes created after the
// freeze: their labels live only in the view's patch, yet an insertion
// must file each edge under its neighbour's label, so the labelled runs
// of frozen and inserted nodes equal a fresh freeze's, in order.
func TestOverlayRunsOnInsertedNodes(t *testing.T) {
	w := newTwinStream(t, false)
	ov := w.ov
	late := w.addNode("city", nil)    // a frozen label
	land := w.addNode("country", nil) // a label the base never saw
	hub := w.addNode("person", nil)   // an inserted source
	w.addEdge(0, late, "lives_in")    // frozen source, run with frozen city 1
	w.addEdge(0, land, "lives_in")    // same edge label, new neighbour label
	w.addEdge(late, land, "in")
	w.addEdge(hub, land, "lives_in")
	w.addEdge(hub, late, "lives_in")
	w.addEdge(hub, 4, "lives_in")
	w.addEdge(hub, 1, "lives_in")
	w.addEdge(5, hub, "knows")
	requireCSROrder(t, ov.Snapshot)
	assertViewMatchesFreeze(t, ov.Snapshot, w.twin)
	fresh := w.twin.BuildSnapshot(1)
	osyms, fsyms := ov.Syms(), fresh.Syms()
	for _, c := range []struct {
		v          NodeID
		edge, node string
		want       string
	}{
		{0, "lives_in", "city", "[1 6]"},
		{0, "lives_in", "country", "[7]"},
		{hub, "lives_in", "city", "[1 4 6]"},
		{hub, "lives_in", "country", "[7]"},
	} {
		got := neighbours(ov.OutWithNbr(c.v, osyms.Lookup(c.edge), osyms.Lookup(c.node)))
		want := neighbours(fresh.OutWithNbr(c.v, fsyms.Lookup(c.edge), fsyms.Lookup(c.node)))
		if got != want || got != c.want {
			t.Fatalf("OutWithNbr(%d, %s, %s): overlay %s, fresh freeze %s, want %s", c.v, c.edge, c.node, got, want, c.want)
		}
	}
	if got := neighbours(ov.InWithNbr(land, osyms.Lookup("lives_in"), osyms.Lookup("person"))); got != "[0 8]" {
		t.Fatalf("InWithNbr(country, lives_in, person) = %s, want [0 8]", got)
	}
	assertCompaction(t, w)
}

// TestOverlayLeavesBaseImmutable pins the copy-on-write contract: patches
// must never leak into the frozen base snapshot another reader may hold,
// nor into the arrays a compaction flattens them into.
func TestOverlayLeavesBaseImmutable(t *testing.T) {
	g := overlayBaseGraph()
	base := g.Freeze()
	wantOut := fmt.Sprint(base.Out(0))
	wantAttr, _ := base.Attr(2, "val")

	ov := NewOverlay(g)
	if ov.Base() != base {
		t.Fatal("overlay must adopt the cached snapshot")
	}
	ov.MustAddEdge(0, 4, "visits")
	ov.SetAttr(2, "val", "rewritten")
	ov.AddNode("person", Attrs{"val": "new"})

	if got := fmt.Sprint(base.Out(0)); got != wantOut {
		t.Fatalf("base adjacency mutated: %s -> %s", wantOut, got)
	}
	if got, _ := base.Attr(2, "val"); got != wantAttr {
		t.Fatalf("base attribute mutated: %q -> %q", wantAttr, got)
	}
	if got, _ := ov.Graph().Attr(2, "val"); got != "rewritten" {
		t.Fatalf("graph does not read the overlay write: %q", got)
	}
	flat := g.Freeze()
	wantFlat := fmt.Sprint(flat.Out(0))
	ov.MustAddEdge(0, 5, "visits")
	if got := fmt.Sprint(flat.Out(0)); got != wantFlat {
		t.Fatalf("compacted adjacency mutated by a later write: %s -> %s", wantFlat, got)
	}
}

// FuzzOverlayPatch drives random update streams through an Overlay, on a
// heap-built and on an adopted base, and checks the patch invariants —
// adjacency sortedness, class ranges, degree counts, attribute tuples —
// against a fresh freeze of a twin graph that received the same stream
// directly. The compaction (Freeze flattening the view) must equal that
// freeze by names and have a valid flat image.
func FuzzOverlayPatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 2, 2, 9, 9, 1, 0, 4, 7, 7})
	f.Add([]byte("interleaved-updates"))
	// Node 0's value written (shared with node 2), overwritten, written
	// back, then attributed nodes inserted.
	f.Add([]byte{0xF5, 0xF2, 0xF5, 0, 6, 12, 0xF2})
	f.Add([]byte{2, 0xF5, 5, 0xF5, 0xF2, 0xF2, 0, 0, 1, 0xF5})
	// Node 0's copied tuple gains an attribute (pop) it never had.
	f.Add([]byte{0xF5, 0xFE, 0xF2})
	// An attributed person inserted, its value overwritten and written back.
	f.Add([]byte{0, 0xFB, 0xF8, 0xFB})
	// A city inserted without attributes, then written.
	f.Add([]byte{3, 0xFB, 0xF8})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		labels := []string{"person", "city", "company", "country"}
		edgeLabels := []string{"lives_in", "works_at", "knows", "based_in"}
		attrs := []string{"val", "pop", "rank"}
		for _, adopted := range []bool{false, true} {
			w := newTwinStream(t, adopted)
			rng := rand.New(rand.NewSource(int64(len(ops))))
			for _, b := range ops {
				switch {
				case b%3 == 0:
					var at Attrs
					if b%2 == 0 {
						at = Attrs{attrs[int(b/3)%len(attrs)]: fmt.Sprintf("a%d", b)}
					}
					w.addNode(labels[int(b/3)%len(labels)], at)
				case b%3 == 1:
					n := w.ov.NumNodes()
					w.addEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), edgeLabels[int(b/3)%len(edgeLabels)])
				case b == 0xFE:
					w.setAttr(0, "pop", "s5")
				case b >= 0xF8:
					// The newest node takes v0 or v2.
					w.setAttr(NodeID(w.ov.NumNodes()-1), "val", []string{"v0", "v2"}[b%2])
				case b >= 0xF0:
					// Node 0 takes person 2's value or its own back.
					w.setAttr(0, "val", []string{"v0", "v2"}[b%2])
				default:
					n := w.ov.NumNodes()
					w.setAttr(NodeID(rng.Intn(n)), attrs[int(b/3)%len(attrs)], fmt.Sprintf("s%d", b))
				}
				if !w.ov.Synced() {
					t.Fatal("overlay fell out of sync under its own mutators")
				}
				// Read the holders after every write: each read re-checks
				// the patch's tuples as they are now.
				syms := w.ov.Syms()
				for _, l := range []string{"person", "city"} {
					for _, a := range []string{"val", "pop"} {
						for _, val := range []string{"v0", "v2", "a0", "s2", "s5"} {
							ls, as, vs := syms.Lookup(l), syms.Lookup(a), syms.Lookup(val)
							if got, want := w.ov.AppendAttrHolders(nil, ls, as, vs), bruteHolders(w.ov.Snapshot, ls, as, vs); !slices.Equal(got, want) {
								t.Fatalf("holders of %s.%s = %s: %v, filtered class %v", l, a, val, got, want)
							}
						}
					}
				}
			}
			assertViewMatchesFreeze(t, w.ov.Snapshot, w.twin)
			assertCompaction(t, w)
		}
	})
}

// TestOverlayAttrsMatchGraph pins a view's tuple reads (and their
// evolution under SetAttr and AddNode, each tuple copied out of the base
// arena on its first write) to Graph.Attr of a twin that took the same
// writes, via string round-trips through the view's table.
func TestOverlayAttrsMatchGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	names := []string{"val", "x", "y", "zz"}
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(12)
		seed := rng.Int63()
		g := randomTestGraph(rand.New(rand.NewSource(seed)), n, n)
		twin := randomTestGraph(rand.New(rand.NewSource(seed)), n, n)
		ov := NewOverlay(g)
		check := func(stage string) {
			for v := 0; v < twin.NumNodes(); v++ {
				for _, a := range names {
					want, wantOK := twin.Attr(NodeID(v), a)
					sym, symOK := ov.AttrSym(NodeID(v), ov.Syms().Lookup(a))
					if symOK != wantOK {
						t.Fatalf("%s: node %d attr %q presence view=%v graph=%v", stage, v, a, symOK, wantOK)
					}
					if wantOK && ov.Syms().Name(sym) != want {
						t.Fatalf("%s: node %d attr %q = %q, want %q", stage, v, a, ov.Syms().Name(sym), want)
					}
				}
			}
		}
		check("initial")
		for u := 0; u < 15; u++ {
			switch rng.Intn(5) {
			case 0:
				attrs := Attrs{names[rng.Intn(len(names))]: fmt.Sprintf("new%d", rng.Intn(3))}
				ov.AddNode("a", attrs.Clone())
				twin.AddNode("a", attrs)
			case 1:
				ov.AddNode("b", nil)
				twin.AddNode("b", nil)
			default:
				v := NodeID(rng.Intn(twin.NumNodes()))
				a := names[rng.Intn(len(names))]
				val := fmt.Sprintf("v%d", rng.Intn(6))
				ov.SetAttr(v, a, val)
				twin.SetAttr(v, a, val)
			}
		}
		check("after-mutation")
	}
}

// TestOverlayHeavyMatchesFreeze: a view's heavy-node list, re-ranked from
// its base list and the nodes it touched, equals the list a fresh freeze
// records, on a base with more nodes of degree at least heavyMin than the
// list holds, under edges that lift frozen and inserted nodes into it.
func TestOverlayHeavyMatchesFreeze(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		g := randomTestGraph(rand.New(rand.NewSource(seed)), 150, 900)
		twin := randomTestGraph(rand.New(rand.NewSource(seed)), 150, 900)
		w := twinStream{ov: NewOverlay(g), twin: twin}
		if len(w.ov.Heavy()) != heavyListLen {
			t.Fatalf("seed %d: base list holds %d nodes, want a full list of %d", seed, len(w.ov.Heavy()), heavyListLen)
		}
		rng := rand.New(rand.NewSource(seed))
		hub := w.addNode("a", nil)
		for i := 0; i < 400; i++ {
			n := w.ov.NumNodes()
			from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(40))
			if i%4 == 0 {
				from = hub
			}
			w.addEdge(from, to, "b")
		}
		assertViewMatchesFreeze(t, w.ov.Snapshot, w.twin)
		if !slices.Contains(w.ov.Heavy(), hub) {
			t.Fatalf("seed %d: inserted hub of degree %d missing from %v", seed, w.ov.OutDegree(hub), w.ov.Heavy())
		}
	}
}

// TestHasEdgeOutsideView: an endpoint outside the graph, negative or past
// the last node, has no edges, on a frozen snapshot, an overlay's patched
// view and a sealed graph, for a concrete and the wildcard label.
func TestHasEdgeOutsideView(t *testing.T) {
	g := overlayBaseGraph()
	frozen := g.Freeze()
	ov := NewOverlay(overlayBaseGraph())
	late := ov.AddNode("city", nil)
	ov.MustAddEdge(0, late, "lives_in")
	sealed := ov.Graph()
	views := map[string]*Snapshot{"frozen": frozen, "patched": ov.Snapshot}
	for name, s := range views {
		l := s.Syms().Lookup("lives_in")
		n := NodeID(s.NumNodes())
		for _, c := range []struct{ from, to NodeID }{
			{99, 1}, {1, 99}, {-1, 1}, {0, -1}, {n, 0}, {0, n}, {-1 << 31, 0},
		} {
			for _, label := range []Sym{l, WildcardSym} {
				if s.HasEdge(c.from, c.to, label) {
					t.Errorf("%s: HasEdge(%d, %d, %d) = true for an endpoint outside the view", name, c.from, c.to, label)
				}
			}
		}
		if !s.HasEdge(0, 1, l) || !s.HasEdge(0, 1, WildcardSym) {
			t.Errorf("%s: HasEdge(0, 1) = false for an edge of the view", name)
		}
	}
	for name, g := range map[string]*Graph{"building": g, "sealed": sealed} {
		n := NodeID(g.NumNodes())
		for _, c := range []struct{ from, to NodeID }{{-1, 1}, {1, -1}, {n, 0}, {0, n}, {99, 1}} {
			if g.HasEdge(c.from, c.to, "lives_in") || g.HasEdgeAnyLabel(c.from, c.to) {
				t.Errorf("%s graph: an edge (%d, %d) with an endpoint outside the graph", name, c.from, c.to)
			}
		}
		if !g.HasEdge(0, 1, "lives_in") || !g.HasEdgeAnyLabel(0, 1) {
			t.Errorf("%s graph: HasEdge(0, 1) = false for an edge of the graph", name)
		}
	}
	if !sealed.Sealed() || !sealed.HasEdge(0, late, "lives_in") {
		t.Fatal("the overlay's graph must be sealed and read its inserted edge")
	}
}

// BenchmarkOverlayReads prices one Out, In or AttrPairs read, in ns per
// read over every node in turn, on a frozen snapshot and on an overlay's
// patched view of it whose updates touched a few thousand nodes (edges in
// both directions, attribute writes, inserted nodes). It prints, it gates
// nothing.
func BenchmarkOverlayReads(b *testing.B) {
	g := randomFreezeGraph(1, 20000)
	base := g.Freeze()
	ov := NewOverlay(g)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		n := ov.NumNodes()
		switch i % 3 {
		case 0:
			ov.AddNode("person", Attrs{"val": fmt.Sprintf("u%d", i)})
		case 1:
			ov.MustAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), "knows")
		default:
			ov.SetAttr(NodeID(rng.Intn(n)), "val", fmt.Sprintf("s%d", i))
		}
	}
	reads := map[string]func(s *Snapshot, v NodeID) int{
		"out":   func(s *Snapshot, v NodeID) int { return len(s.Out(v)) },
		"in":    func(s *Snapshot, v NodeID) int { return len(s.In(v)) },
		"attrs": func(s *Snapshot, v NodeID) int { return len(s.AttrPairs(v)) },
	}
	for _, view := range []struct {
		name string
		s    *Snapshot
	}{{"frozen", base}, {"view", ov.Snapshot}} {
		for _, what := range []string{"out", "in", "attrs"} {
			b.Run(view.name+"/"+what, func(b *testing.B) {
				read, s, n := reads[what], view.s, view.s.NumNodes()
				sum := 0
				for i := 0; i < b.N; i++ {
					for v := 0; v < n; v++ {
						sum += read(s, NodeID(v))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/read")
				if sum < 0 {
					b.Fatal("negative length")
				}
			})
		}
	}
}

// TestOverlayInsertsAllocateLittle: a fresh overlay's first inserts write
// into slot arrays made with room for them, and a label's first insert
// copies its base class once. 100 attribute-less inserts of a small-class
// label over a 100 000-node base allocate under 100 kB, where regrowing the
// three slot arrays alone costs 1.2 MB.
func TestOverlayInsertsAllocateLittle(t *testing.T) {
	const n = 100_000
	g := New(n, 0)
	for i := range n {
		label := "big"
		if i%1000 == 0 {
			label = "small"
		}
		g.AddNode(label, nil)
	}
	ov := NewOverlay(g)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	for range 100 {
		ov.AddNode("small", nil)
	}
	runtime.ReadMemStats(&ms)
	got := ms.TotalAlloc - before
	t.Logf("100 inserts allocated %d B", got)
	if got >= 100_000 {
		t.Fatalf("100 inserts allocated %d B, want under 100 kB", got)
	}
	if cls := ov.NodesWith(ov.Syms().Intern("small")); len(cls) != n/1000+100 {
		t.Fatalf("the small class holds %d nodes, want %d", len(cls), n/1000+100)
	}
}
