package graph

import (
	"fmt"
	"math/rand"
	"sort"
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
func edgeKey(syms *Symbols, e CSREdge) string {
	return fmt.Sprintf("%s->%d", syms.Name(e.Label), e.To)
}

// neighbours renders the To column of an adjacency range, in order.
func neighbours(es []CSREdge) string {
	ids := make([]NodeID, len(es))
	for i, e := range es {
		ids[i] = e.To
	}
	return fmt.Sprint(ids)
}

// assertOverlayMatchesFreeze checks every observable the overlay's view
// serves against a fresh freeze of the mutated graph — the compaction
// oracle: the patched view and the from-scratch CSR must be
// indistinguishable.
func assertOverlayMatchesFreeze(t *testing.T, ov *Overlay) {
	t.Helper()
	g := ov.Graph()
	snap := buildSnapshot(g) // bypass the cache: the oracle must be fresh
	if ov.NumNodes() != snap.NumNodes() {
		t.Fatalf("NumNodes: overlay %d, freeze %d", ov.NumNodes(), snap.NumNodes())
	}
	if ov.NumEdges() != snap.NumEdges() {
		t.Fatalf("NumEdges: overlay %d, freeze %d", ov.NumEdges(), snap.NumEdges())
	}
	osyms, ssyms := ov.Syms(), snap.Syms()
	var edgeLabels []string
	seen := map[string]bool{}
	g.Edges(func(e Edge) bool {
		if !seen[e.Label] {
			seen[e.Label] = true
			edgeLabels = append(edgeLabels, e.Label)
		}
		return true
	})
	keys := func(syms *Symbols, es []CSREdge) []string {
		out := make([]string, len(es))
		for i := range es {
			out[i] = edgeKey(syms, es[i])
		}
		sort.Strings(out)
		return out
	}
	for v := 0; v < snap.NumNodes(); v++ {
		id := NodeID(v)
		if got, want := osyms.Name(ov.Label(id)), ssyms.Name(snap.Label(id)); got != want {
			t.Fatalf("Label(%d): overlay %q, freeze %q", v, got, want)
		}
		if ov.OutDegree(id) != snap.OutDegree(id) || ov.InDegree(id) != snap.InDegree(id) {
			t.Fatalf("degrees of %d: overlay (%d, %d), freeze (%d, %d)", v,
				ov.OutDegree(id), ov.InDegree(id), snap.OutDegree(id), snap.InDegree(id))
		}
		// Adjacency must agree as an edge multiset; the within-node order
		// may differ between the views because each is sorted by its own
		// table's label codes (the overlay interns late-arriving labels at
		// higher codes than a fresh freeze would). Per-view sortedness —
		// what the binary searches rely on — is asserted separately. Each
		// label's subrange is To-sorted in both views, so it compares as is.
		for dir, pair := range map[string][2][]CSREdge{
			"out": {ov.Out(id), snap.Out(id)},
			"in":  {ov.In(id), snap.In(id)},
		} {
			oes := pair[0]
			if i := csrOrderBreak(ov.Snapshot, oes); i >= 0 {
				t.Fatalf("%s adjacency of %d not (label, neighbour label, neighbour)-sorted at %d", dir, v, i)
			}
			if got, want := fmt.Sprint(keys(osyms, oes)), fmt.Sprint(keys(ssyms, pair[1])); got != want {
				t.Fatalf("%s adjacency of %d: overlay %s, freeze %s", dir, v, got, want)
			}
		}
		for _, name := range edgeLabels {
			ol, sl := osyms.Lookup(name), ssyms.Lookup(name)
			if got, want := fmt.Sprint(keys(osyms, ov.OutWith(id, ol))), fmt.Sprint(keys(ssyms, snap.OutWith(id, sl))); got != want {
				t.Fatalf("OutWith(%d, %s): overlay %s, freeze %s", v, name, got, want)
			}
			if got, want := fmt.Sprint(keys(osyms, ov.InWith(id, ol))), fmt.Sprint(keys(ssyms, snap.InWith(id, sl))); got != want {
				t.Fatalf("InWith(%d, %s): overlay %s, freeze %s", v, name, got, want)
			}
			// A run with both labels concrete is To-sorted in both views,
			// so its neighbours compare in order, not as a set.
			for _, label := range g.Labels() {
				onl, snl := osyms.Lookup(label), ssyms.Lookup(label)
				if got, want := neighbours(ov.OutWithNbr(id, ol, onl)), neighbours(snap.OutWithNbr(id, sl, snl)); got != want {
					t.Fatalf("OutWithNbr(%d, %s, %s): overlay %s, freeze %s", v, name, label, got, want)
				}
				if got, want := neighbours(ov.InWithNbr(id, ol, onl)), neighbours(snap.InWithNbr(id, sl, snl)); got != want {
					t.Fatalf("InWithNbr(%d, %s, %s): overlay %s, freeze %s", v, name, label, got, want)
				}
			}
		}
		// Attribute tuples: the graph's map, the interned pairs, and the
		// string-keyed read must all agree.
		attrs := g.NodeAttrs(id)
		ps := ov.AttrPairs(id)
		if len(ps) != len(attrs) {
			t.Fatalf("AttrPairs(%d): overlay holds %d pairs, graph %d", v, len(ps), len(attrs))
		}
		for i, p := range ps {
			if i > 0 && ps[i-1].Name >= p.Name {
				t.Fatalf("AttrPairs(%d) not strictly sorted by name at %d", v, i)
			}
			if want, ok := attrs[osyms.Name(p.Name)]; !ok || osyms.Name(p.Val) != want {
				t.Fatalf("AttrPairs(%d): pair %s=%s, graph %q", v, osyms.Name(p.Name), osyms.Name(p.Val), want)
			}
		}
		for name, want := range attrs {
			sym, ok := ov.AttrSym(id, osyms.Lookup(name))
			if !ok || osyms.Name(sym) != want {
				t.Fatalf("AttrSym(%d, %s): overlay %q (%v), graph %q", v, name, osyms.Name(sym), ok, want)
			}
			if got, _ := ov.Attr(id, name); got != want {
				t.Fatalf("Attr(%d, %s): overlay %q, graph %q", v, name, got, want)
			}
		}
	}
	// Candidate classes: same node sets, ascending, sizes consistent.
	for _, label := range g.Labels() {
		ol, sl := osyms.Lookup(label), ssyms.Lookup(label)
		oc := ov.NodesWith(ol)
		sc := snap.NodesWith(sl)
		if fmt.Sprint(oc) != fmt.Sprint(sc) {
			t.Fatalf("NodesWith(%s): overlay %v, freeze %v", label, oc, sc)
		}
		if !sort.SliceIsSorted(oc, func(i, j int) bool { return oc[i] < oc[j] }) {
			t.Fatalf("NodesWith(%s) not ascending: %v", label, oc)
		}
		if ov.ClassSize(ol) != len(oc) {
			t.Fatalf("ClassSize(%s) = %d, class has %d", label, ov.ClassSize(ol), len(oc))
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
			if got, want := ov.HasEdge(from, to, WildcardSym), snap.HasEdge(from, to, WildcardSym); got != want {
				t.Fatalf("HasEdge(%d, %d, _): overlay %v, freeze %v", a, b, got, want)
			}
			for _, name := range edgeLabels {
				if got, want := ov.HasEdge(from, to, osyms.Lookup(name)), snap.HasEdge(from, to, ssyms.Lookup(name)); got != want {
					t.Fatalf("HasEdge(%d, %d, %s): overlay %v, freeze %v", a, b, name, got, want)
				}
			}
		}
		for c := 0; c <= 2; c++ {
			if got, want := fmt.Sprint(ov.Neighborhood(NodeID(a), c)), fmt.Sprint(snap.Neighborhood(NodeID(a), c)); got != want {
				t.Fatalf("Neighborhood(%d, %d): overlay %s, freeze %s", a, c, got, want)
			}
			if got, want := ov.NeighborhoodSize(NodeID(a), c), snap.NeighborhoodSize(NodeID(a), c); got != want {
				t.Fatalf("NeighborhoodSize(%d, %d): overlay %d, freeze %d", a, c, got, want)
			}
			oset, sset := NewEpochSet(ov.NumNodes()), NewEpochSet(snap.NumNodes())
			ov.BlockInto(oset, NodeID(a), c)
			snap.BlockInto(sset, NodeID(a), c)
			om := append([]NodeID(nil), oset.Members()...)
			sm := append([]NodeID(nil), sset.Members()...)
			sortNodeIDs(om)
			sortNodeIDs(sm)
			if fmt.Sprint(om) != fmt.Sprint(sm) {
				t.Fatalf("BlockInto(%d, %d): overlay %v, freeze %v", a, c, om, sm)
			}
		}
	}
}

func TestOverlayMirrorsUpdates(t *testing.T) {
	g := overlayBaseGraph()
	ov := NewOverlay(g)
	if !ov.Synced() {
		t.Fatal("fresh overlay must be synced")
	}
	assertOverlayMatchesFreeze(t, ov)

	// New node with a new label and attribute values.
	id := ov.AddNode("country", Attrs{"val": "AU", "pop": "26m"})
	if id != 6 {
		t.Fatalf("AddNode id = %d, want 6", id)
	}
	// Edges touching frozen and fresh nodes, including a new edge label.
	ov.MustAddEdge(1, id, "in_country")
	ov.MustAddEdge(id, 4, "contains")
	ov.MustAddEdge(0, 1, "visits") // second labeled edge on a frozen pair
	// Attribute upsert on a frozen node (copy-on-write over the arena)
	// and on the fresh node.
	ov.SetAttr(2, "val", "rewritten")
	ov.SetAttr(id, "val", "Australia")
	// A late node of a label the first check already read: the view must
	// not serve a class cached before it.
	ov.AddNode("city", Attrs{"val": "late"})
	if !ov.Synced() {
		t.Fatal("overlay must stay synced through its own mutators")
	}
	assertOverlayMatchesFreeze(t, ov)

	if ov.Delta() == 0 {
		t.Error("delta must grow with patches")
	}
	if frac := ov.DeltaFraction(); frac <= 0 {
		t.Errorf("delta fraction = %v, want > 0", frac)
	}

	// A mutation bypassing the overlay desynchronizes it.
	g.SetAttr(0, "val", "behind-the-back")
	if ov.Synced() {
		t.Error("direct graph mutation must desynchronize the overlay")
	}
}

// TestOverlayRunsOnInsertedNodes covers edges at nodes created after the
// freeze: their labels live only in the view's patch, yet an insertion
// must file each edge under its neighbour's label, so the labelled runs
// of frozen and inserted nodes equal a fresh freeze's, in order.
func TestOverlayRunsOnInsertedNodes(t *testing.T) {
	g := overlayBaseGraph()
	ov := NewOverlay(g)
	late := ov.AddNode("city", nil)     // a frozen label
	land := ov.AddNode("country", nil)  // a label the base never saw
	hub := ov.AddNode("person", nil)    // an inserted source
	ov.MustAddEdge(0, late, "lives_in") // frozen source, run with frozen city 1
	ov.MustAddEdge(0, land, "lives_in") // same edge label, new neighbour label
	ov.MustAddEdge(late, land, "in")
	ov.MustAddEdge(hub, land, "lives_in")
	ov.MustAddEdge(hub, late, "lives_in")
	ov.MustAddEdge(hub, 4, "lives_in")
	ov.MustAddEdge(hub, 1, "lives_in")
	ov.MustAddEdge(5, hub, "knows")
	requireCSROrder(t, ov.Snapshot)
	assertOverlayMatchesFreeze(t, ov)
	fresh := buildSnapshot(g)
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
}

// TestOverlayLeavesBaseImmutable pins the copy-on-write contract: patches
// must never leak into the frozen base snapshot another reader may hold.
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
		t.Fatalf("graph missed the overlay write: %q", got)
	}
}

// FuzzOverlayPatch drives random update streams through an Overlay and
// checks the patch invariants — adjacency sortedness, class ranges,
// degree counts, attribute tuples — against a from-scratch freeze of the
// same mutated graph (which is also the compaction oracle: compacting is
// exactly replacing the overlay with that fresh snapshot).
func FuzzOverlayPatch(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 2, 2, 9, 9, 1, 0, 4, 7, 7})
	f.Add([]byte("interleaved-updates"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		g := overlayBaseGraph()
		ov := NewOverlay(g)
		labels := []string{"person", "city", "company", "country"}
		edgeLabels := []string{"lives_in", "works_at", "knows", "based_in"}
		attrs := []string{"val", "pop", "rank"}
		rng := rand.New(rand.NewSource(int64(len(ops))))
		for _, b := range ops {
			switch b % 3 {
			case 0:
				var at Attrs
				if b%2 == 0 {
					at = Attrs{attrs[int(b/3)%len(attrs)]: fmt.Sprintf("a%d", b)}
				}
				ov.AddNode(labels[int(b/3)%len(labels)], at)
			case 1:
				n := ov.NumNodes()
				from := NodeID(rng.Intn(n))
				to := NodeID(rng.Intn(n))
				ov.MustAddEdge(from, to, edgeLabels[int(b/3)%len(edgeLabels)])
			default:
				n := ov.NumNodes()
				ov.SetAttr(NodeID(rng.Intn(n)), attrs[int(b/3)%len(attrs)], fmt.Sprintf("s%d", b))
			}
			if !ov.Synced() {
				t.Fatal("overlay fell out of sync under its own mutators")
			}
		}
		assertOverlayMatchesFreeze(t, ov)
		// The compacted view (fresh overlay over the re-frozen graph) must
		// be observationally identical too.
		assertOverlayMatchesFreeze(t, NewOverlay(g))
	})
}
