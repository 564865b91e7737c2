package graph

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Overlay is the write side of a changing graph: it applies a stream of
// AddNode / AddEdge / SetAttr updates to a frozen base Snapshot without an
// O(|V|+|E|) re-freeze per update batch, and serves every read through its
// embedded view — a *Snapshot that shares the base's arrays and carries the
// overlay's patch (Patched). Engines read that view, so they run on an
// overlay exactly as on a fresh freeze.
//
// The overlay owns its delta: a write patches the view and bumps the
// graph's version, and calls no *Graph mutator. The first write seals the
// graph over the view (see Graph): a heap-built graph drops its maps, an
// adopted graph was sealed from the start. From then on a direct AddNode,
// AddEdge or SetAttr on the graph is a write through its live overlay,
// so the overlay stays synced and no write rebuilds the graph. Update cost
// is bounded by the delta, never by the graph.
//
// Representation: the patch gives every node three dense int32 slots,
// indexed by NodeID — out, in and attribute tuple. Slot 0 reads the base
// arrays (nothing, for a node inserted after the freeze); slot k reads the
// k-th list the patch copied. A node's adjacency in one direction is
// copied out of the base CSR on its first touch and kept in key order
// (compareCSR) in place, so OutWithNbr/InWithNbr runs and HasEdge
// bisections work exactly as on a frozen snapshot; its tuple
// is copied out of the base arena on its first attribute write. A read of
// a node no update touched — most of them — is one slot load beside the
// base read, with no hash. The slots cost 12 bytes per node, allocated
// when the overlay starts; the patch also lists the nodes it touched, which
// Heavy re-ranks, and, per label, the nodes whose tuple it holds, which a
// holder read (AppendAttrHolders) re-checks against those tuples, so the
// holders of a value cost per write, never per graph. Nodes inserted after
// the freeze get label and class-range fixups (per-label candidate classes
// grown incrementally, kept ascending because new IDs are always larger
// than frozen ones).
//
// The overlay interns new labels and attribute values into the base
// snapshot's own symbol table, and ranks a new label last in the view's
// copy of the base's ranks. Codes and ranks only grow, so artifacts compiled
// against the table stay valid — with the usual growing-table caveat:
// names a pattern or rule mentions must be interned before compiling
// (pattern.InternInto, GFD.InternLiterals), or an absent name would be
// frozen as "matches nothing". Mutating an overlay concurrently with any
// matching against views sharing the table is not safe; between update
// batches the overlay is safe for concurrent readers, like a Snapshot.
//
// A graph has at most one live overlay, and the graph owns it: NewOverlay
// returns it (starting one when none is live), every holder of the graph
// writes through it, and Settle, after a batch, compacts it once its delta
// has outgrown the base — Freeze flattens the view, the overlay retires and
// a fresh one over the flat snapshot becomes the live one. A retired
// overlay still reads as before but is no longer Synced, so no holder can
// write through it.
type Overlay struct {
	*Snapshot // the patched read view

	base  *Snapshot
	delta int // patch size: nodes + edges + attribute writes since the freeze
}

// NewOverlay returns g's live overlay, the graph's one writer. It starts
// one — an empty overlay over g's snapshot, Freeze cached per version, so
// this builds nothing on an already-frozen graph — only when none is live
// or the graph moved on without it (a direct write to a building graph,
// which retires an overlay that has not written yet). Every holder of g
// (sessions, incremental detectors, dist workers) gets the same overlay, so
// each one's writes are the others' reads.
func NewOverlay(g *Graph) *Overlay {
	g.liveMu.Lock()
	defer g.liveMu.Unlock()
	if o := g.LiveOverlay(); o != nil {
		return o
	}
	return g.startOverlay()
}

// LiveOverlay returns g's live overlay while it is synced, nil otherwise.
// Unlike NewOverlay it starts none, so concurrent readers may call it. An
// overlay a direct write to a building graph retired is dropped here, so
// the graph stops holding its base snapshot and patch.
func (g *Graph) LiveOverlay() *Overlay {
	o := g.live.Load()
	if o == nil {
		return nil
	}
	if o.Synced() {
		return o
	}
	g.live.CompareAndSwap(o, nil)
	return nil
}

// startOverlay makes an empty overlay over g's current snapshot the live
// one, retiring the previous. A graph sealed over the previous overlay's
// view is flattened by the Freeze. Callers hold g.liveMu.
func (g *Graph) startOverlay() *Overlay {
	base := g.Freeze()
	view := &Snapshot{
		g: g, syms: base.syms, labels: base.labels,
		attrOff: base.attrOff, attrPairs: base.attrPairs,
		outOff: base.outOff, out: base.out, inOff: base.inOff, in: base.in,
		classOff: base.classOff, classes: base.classes,
		heavy: base.heavy, held: base.held,
		ranks: ranks{slices.Clone(base.edgeLabels), slices.Clone(base.nodeLabels), slices.Clone(base.rankOf)},
		patch: newPatch(base, g.Version()),
	}
	o := &Overlay{Snapshot: view, base: base}
	g.live.Store(o)
	return o
}

// Settle ends a batch of writes through o. Once the delta has outgrown the
// base by CompactFraction it compacts: Freeze flattens the view into fresh
// flat arrays (no sort, same symbol table), o retires, and a fresh overlay
// over the flat snapshot becomes the graph's live one. The batch that
// crosses the fraction pays the O(|V|+|E|) flatten, once per Ω(|G|)
// updates. Node IDs survive, so holders adopt the new overlay through
// NewOverlay and keep their state.
func (o *Overlay) Settle() {
	if o.deltaFraction() <= CompactFraction {
		return
	}
	g := o.g
	g.liveMu.Lock()
	defer g.liveMu.Unlock()
	if o.Synced() {
		g.startOverlay()
	}
}

// Base returns the frozen snapshot the overlay patches.
func (o *Overlay) Base() *Snapshot { return o.base }

// Synced reports whether o is the graph's live overlay at the graph's
// current version — true until a compaction (Settle) retires it, or, on a
// graph it has not written yet, a direct graph mutation. Writing through an overlay that is not synced fails
// with ErrStaleOverlay; its holders adopt the live one through NewOverlay.
func (o *Overlay) Synced() bool {
	return o.g.live.Load() == o && o.patch.version == o.g.Version()
}

// ErrStaleOverlay reports a write through an overlay that is no longer its
// graph's live writer: a compaction retired the overlay, or a building
// graph moved on through a direct mutation, so a patch on this view would be lost.
var ErrStaleOverlay = errors.New("graph: write through a desynchronized overlay")

// Delta returns the patch size: nodes inserted + edges inserted +
// attribute writes since the base freeze.
func (o *Overlay) Delta() int { return o.delta }

// deltaFraction returns Delta relative to the base size |V|+|E| — the
// compaction trigger: past CompactFraction, re-freezing once is cheaper
// than dragging a large patch set through every lookup.
func (o *Overlay) deltaFraction() float64 {
	base := o.base.NumNodes() + o.base.NumEdges()
	if base < 1 {
		base = 1
	}
	return float64(o.delta) / float64(base)
}

// CompactFraction is the delta fraction past which Settle compacts. Past a
// quarter of the base, one amortized freeze beats the patches.
const CompactFraction = 0.25

// AddNode inserts a node: label interned, candidate class extended,
// attribute tuple indexed. Returns the new node's ID. It panics with
// ErrStaleOverlay on a desynchronized overlay.
func (o *Overlay) AddNode(label string, attrs Attrs) NodeID {
	if !o.Synced() {
		panic(ErrStaleOverlay)
	}
	id := NodeID(o.NumNodes())
	p := o.patch
	var slot int32
	if len(attrs) > 0 {
		p.tuples = append(p.tuples, o.internTuple(attrs))
		slot = int32(len(p.tuples) - 1)
	}
	p.outSlot, p.inSlot = append(p.outSlot, 0), append(p.inSlot, 0)
	p.attrSlot = append(p.attrSlot, slot)
	l := o.syms.Intern(label)
	if slot != 0 {
		p.tupled[l] = append(p.tupled[l], id)
	}
	if o.rank(l).nbr < 0 {
		o.add(l, false)
	}
	p.labels = append(p.labels, l)
	// Extend the merged candidate class; seeded from the base range, with
	// room for more inserts, on the label's first insertion. New IDs exceed
	// every frozen ID, so the class stays ascending by construction.
	m, ok := p.classes[l]
	if !ok {
		base := o.base.NodesWith(l)
		m = make([]NodeID, len(base), len(base)+len(base)/8+8)
		copy(m, base)
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
	if o.rank(l).edge < 0 {
		if len(o.edgeLabels) == MaxEdgeLabels {
			return ErrLabelSpace
		}
		o.add(l, true)
	}
	p := o.patch
	o.insertSorted(o.touch(p.outSlot, from, o.outOff, o.out), CSREdge{To: to, Label: o.key(l, o.Label(to))})
	o.insertSorted(o.touch(p.inSlot, to, o.inOff, o.in), CSREdge{To: from, Label: o.key(l, o.Label(from))})
	p.edges++
	// One unit per edge, matching the |V|+|E| denominator of
	// deltaFraction — counting both half-edge patches would silently
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

// SetAttr upserts attribute a = val on node v, interning both; v's tuple
// is copied out of the base arena on its first write. It panics on a node
// outside the view and with ErrStaleOverlay on a desynchronized overlay.
func (o *Overlay) SetAttr(v NodeID, a, val string) {
	if !o.Synced() {
		panic(ErrStaleOverlay)
	}
	if v < 0 || int(v) >= o.NumNodes() {
		panic(fmt.Sprintf("graph: SetAttr on missing node %d", v))
	}
	p := o.patch
	name, sym := o.syms.Intern(a), o.syms.Intern(val)
	k := p.attrSlot[v]
	if k == 0 {
		p.tuples = append(p.tuples, slices.Clone(o.AttrPairs(v)))
		k = int32(len(p.tuples) - 1)
		p.attrSlot[v] = k
		l := o.Label(v)
		p.tupled[l] = append(p.tupled[l], v)
	}
	ps := p.tuples[k]
	pos := sort.Search(len(ps), func(i int) bool { return ps[i].Name >= name })
	if pos < len(ps) && ps[pos].Name == name {
		ps[pos].Val = sym
	} else {
		p.tuples[k] = slices.Insert(ps, pos, AttrPair{Name: name, Val: sym})
	}
	o.delta++
	p.version = o.g.readThrough(o.Snapshot)
}

// internTuple interns an inserted node's attributes, names in string
// order so the codes minted do not depend on map order, and returns them
// as a tuple sorted by name code.
func (o *Overlay) internTuple(a Attrs) []AttrPair {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	ps := make([]AttrPair, 0, len(keys))
	for _, k := range keys {
		ps = append(ps, AttrPair{Name: o.syms.Intern(k), Val: o.syms.Intern(a[k])})
	}
	sortAttrPairs(ps)
	return ps
}

// touch returns the slot of v's copied adjacency in one direction, copying
// its base range into a fresh list on first touch (an inserted node starts
// from an empty one) and recording v as touched.
func (o *Overlay) touch(slots []int32, v NodeID, off []int32, arena []CSREdge) int32 {
	if k := slots[v]; k != 0 {
		return k
	}
	p := o.patch
	if p.outSlot[v] == 0 && p.inSlot[v] == 0 {
		p.touched = append(p.touched, v)
	}
	var es []CSREdge
	if int(v) < len(o.labels) {
		base := arena[off[v]:off[v+1]]
		es = append(make([]CSREdge, 0, len(base)+4), base...)
	}
	p.lists = append(p.lists, es)
	k := int32(len(p.lists) - 1)
	slots[v] = k
	return k
}

// insertSorted inserts e into its compareCSR position in list k, reading
// neighbour labels (inside the overflow rank only) through the view, which
// also knows the nodes inserted after the freeze. Duplicate entries are
// kept adjacent, mirroring the graph's multi-edge behavior; the matcher
// collapses them like it does on a frozen snapshot.
func (o *Overlay) insertSorted(k int32, e CSREdge) {
	es := o.patch.lists[k]
	pos := sort.Search(len(es), func(i int) bool { return compareCSR(es[i], e, o.Label) >= 0 })
	o.patch.lists[k] = slices.Insert(es, pos, e)
}
