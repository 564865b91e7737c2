package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Overlay is the write side of a changing graph: it applies a stream of
// AddNode / AddEdge / SetAttr updates to a frozen base Snapshot without an
// O(|V|+|E|) re-freeze per update batch, and serves every read through its
// embedded view — a *Snapshot that shares the base's arrays and carries the
// overlay's patch. The view is what implements Topology, so the engines
// and the matcher run on an overlay exactly as on a fresh freeze.
//
// The overlay owns its delta: a write patches the view and bumps the
// graph's version, and calls no *Graph mutator. The view becomes the
// graph's read source (the graph is hollow over it, see AdoptFlat), so an
// adopted graph never thaws and a heap-built graph drops its maps on the
// first write. Update cost is bounded by the delta, never by the graph.
// Compaction is Graph.Freeze, which flattens the view into fresh arrays.
//
// Representation: adjacency of a touched node is copied out of the base
// CSR on first touch and maintained (label, neighbor label, neighbor)-sorted
// in place, so OutWithNbr/InWithNbr runs and HasEdge binary searches work
// exactly as on a frozen snapshot; untouched nodes read straight from the
// base arrays.
// Nodes inserted after the freeze get label and class-range fixups
// (per-label candidate classes grown incrementally, kept ascending because
// new IDs are always larger than frozen ones). Attributes ride on an
// AttrIndex that borrows the base snapshot's interned arena copy-on-write.
//
// The overlay interns new labels and attribute values into the base
// snapshot's own symbol table. Codes only ever grow, so artifacts compiled
// against the table stay valid — with the usual growing-table caveat:
// names a pattern or rule mentions must be interned before compiling
// (pattern.InternInto, GFD.InternLiterals), or an absent name would be
// frozen as "matches nothing". Mutating an overlay concurrently with any
// matching against views sharing the table is not safe; between update
// batches the overlay is safe for concurrent readers, like a Snapshot.
//
// An Overlay is meant to stay small relative to its base: patch cost grows
// with the touched region, and holders compact (Freeze the graph and start
// a fresh overlay) once DeltaFraction crosses their threshold.
type Overlay struct {
	*Snapshot // the patched read view

	base  *Snapshot
	delta int // patch size: nodes + edges + attribute writes since the freeze

}

// NewOverlay freezes g (cached per version, so stacking an overlay on an
// already-frozen graph builds nothing; a graph hollow over another
// overlay's view is compacted) and returns an empty overlay over the
// snapshot. There is exactly one writer: all further mutations must flow
// through one synced overlay's AddNode/AddEdge/SetAttr. A direct graph
// mutation, or a write through another overlay, desynchronizes it (see
// Synced), and its writes fail from then on.
func NewOverlay(g *Graph) *Overlay {
	base := g.Freeze()
	view := &Snapshot{
		g: g, syms: base.syms, labels: base.labels,
		attrOff: base.attrOff, attrPairs: base.attrPairs,
		outOff: base.outOff, out: base.out, inOff: base.inOff, in: base.in,
		classOff: base.classOff, classes: base.classes,
		heavy: base.heavy,
		patch: &patch{
			out:     make(map[NodeID][]CSREdge),
			in:      make(map[NodeID][]CSREdge),
			classes: make(map[Sym][]NodeID),
			attrs:   newAttrIndexOver(base),
			version: g.Version(),
		},
	}
	return &Overlay{Snapshot: view, base: base}
}

// Base returns the frozen snapshot the overlay patches.
func (o *Overlay) Base() *Snapshot { return o.base }

// Synced reports whether the overlay reflects the graph's current version
// — true as long as every mutation since NewOverlay went through this
// overlay (or through none). Holders of a desynchronized overlay must
// discard it and start a fresh one; writing through it fails with
// ErrStaleOverlay.
func (o *Overlay) Synced() bool { return o.patch.version == o.g.Version() }

// ErrStaleOverlay reports a write through an overlay that no longer
// reflects its graph: the graph moved on through a direct mutation or
// another overlay, so a patch on this view would be lost.
var ErrStaleOverlay = errors.New("graph: write through a desynchronized overlay")

// Delta returns the patch size: nodes inserted + edges inserted +
// attribute writes since the base freeze.
func (o *Overlay) Delta() int { return o.delta }

// DeltaFraction returns Delta relative to the base size |V|+|E| — the
// compaction trigger: past a threshold fraction, re-freezing once is
// cheaper than dragging a large patch set through every lookup.
func (o *Overlay) DeltaFraction() float64 {
	base := o.base.NumNodes() + o.base.NumEdges()
	if base < 1 {
		base = 1
	}
	return float64(o.delta) / float64(base)
}

// CompactFraction is the DeltaFraction past which holders should compact
// (drop the overlay and re-freeze once). One shared constant: the session
// and the incremental detector maintain the same overlay, so diverging
// thresholds would make the lifecycle depend on which Apply a batch took.
// Past a quarter of the base, one amortized freeze beats the patches.
const CompactFraction = 0.25

// NeedsCompaction reports whether the accumulated delta has outgrown the
// base by CompactFraction.
func (o *Overlay) NeedsCompaction() bool { return o.DeltaFraction() > CompactFraction }

// AddNode inserts a node: label interned, candidate class extended,
// attribute tuple indexed. Returns the new node's ID. It panics with
// ErrStaleOverlay on a desynchronized overlay.
func (o *Overlay) AddNode(label string, attrs Attrs) NodeID {
	if !o.Synced() {
		panic(ErrStaleOverlay)
	}
	id := NodeID(o.NumNodes())
	p := o.patch
	p.attrs.AddNode(attrs)
	l := o.syms.Intern(label)
	p.labels = append(p.labels, l)
	// Extend the merged candidate class; seeded from the base range on the
	// label's first insertion. New IDs exceed every frozen ID, so the class
	// stays ascending by construction.
	m, ok := p.classes[l]
	if !ok {
		m = append([]NodeID(nil), o.base.NodesWith(l)...)
	}
	p.classes[l] = append(m, id)
	o.delta += 1 + len(attrs)
	p.version = o.g.readThrough(o.Snapshot)
	return id
}

// AddEdge inserts a directed labeled edge, patching both endpoints'
// adjacency (copy-on-write on first touch). It fails on an endpoint
// outside the view and with ErrStaleOverlay on a desynchronized overlay.
func (o *Overlay) AddEdge(from, to NodeID, label string) error {
	if !o.Synced() {
		return ErrStaleOverlay
	}
	if n := o.NumNodes(); from < 0 || int(from) >= n || to < 0 || int(to) >= n {
		return fmt.Errorf("graph: edge (%d)-[%s]->(%d) references missing node", from, label, to)
	}
	l := o.syms.Intern(label)
	p := o.patch
	p.out[from] = o.insertSorted(o.adjacency(p.out, from, o.outOff, o.out), CSREdge{To: to, Label: l})
	p.in[to] = o.insertSorted(o.adjacency(p.in, to, o.inOff, o.in), CSREdge{To: from, Label: l})
	p.edges++
	// One unit per edge, matching the |V|+|E| denominator of
	// DeltaFraction — counting both half-edge patches would silently
	// halve the documented compaction threshold for edge-heavy streams.
	o.delta++
	p.version = o.g.readThrough(o.Snapshot)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (o *Overlay) MustAddEdge(from, to NodeID, label string) {
	if err := o.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// SetAttr upserts attribute a = val on node v in the attribute index. It
// panics on a node outside the view and with ErrStaleOverlay on a
// desynchronized overlay.
func (o *Overlay) SetAttr(v NodeID, a, val string) {
	if !o.Synced() {
		panic(ErrStaleOverlay)
	}
	if v < 0 || int(v) >= o.NumNodes() {
		panic(fmt.Sprintf("graph: SetAttr on missing node %d", v))
	}
	o.patch.attrs.SetAttr(v, a, val)
	o.delta++
	o.patch.version = o.g.readThrough(o.Snapshot)
}

// adjacency returns the mutable adjacency slice of v for one direction:
// the existing patch, or a fresh copy of the base range on first touch.
func (o *Overlay) adjacency(p map[NodeID][]CSREdge, v NodeID, off []int32, arena []CSREdge) []CSREdge {
	if es, ok := p[v]; ok {
		return es
	}
	if int(v) < o.base.NumNodes() {
		base := arena[off[v]:off[v+1]]
		es := make([]CSREdge, len(base), len(base)+4)
		copy(es, base)
		return es
	}
	return nil
}

// insertSorted inserts e into its (Label, Label(To), To) position, reading
// neighbour labels through the view, which also knows the nodes inserted
// after the freeze. Duplicate triples are kept adjacent, mirroring the
// graph's multi-edge behavior; the matcher collapses them like it does on a
// frozen snapshot.
func (o *Overlay) insertSorted(es []CSREdge, e CSREdge) []CSREdge {
	nl := o.Label(e.To)
	pos := sort.Search(len(es), func(i int) bool {
		return compareCSR(es[i], o.Label(es[i].To), e, nl) >= 0
	})
	es = append(es, CSREdge{})
	copy(es[pos+1:], es[pos:])
	es[pos] = e
	return es
}
