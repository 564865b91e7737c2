package graph

import (
	"cmp"
	"errors"
	"slices"
	"sync"
)

// CSREdge is one adjacency entry of a Snapshot: the other endpoint and the
// entry's key. Within a node's range entries are sorted by (Label, To)
// (compareCSR), so the neighbours under one edge label that carry one node
// label form a contiguous, To-sorted run (OutWithNbr/InWithNbr) that two
// bisections of the key column find.
type CSREdge struct {
	To    NodeID
	Label LabelKey
}

// LabelKey is an adjacency entry's sort key: the rank of its edge label in
// the high 16 bits, the rank of its neighbour's node label in the low 16.
// Ranks are per snapshot and dense: a freeze ranks each kind in code order,
// an Overlay ranks a label first used after it last. Node labels past the
// 65 535th share the overflow rank, ordered inside by label code.
type LabelKey uint32

const (
	nbrBits       = 16
	nbrMask       = 1<<nbrBits - 1
	overflowRank  = nbrMask   // the neighbour rank shared by node labels past the 65 535th
	MaxEdgeLabels = 1<<16 - 1 // the distinct edge labels a graph can hold
)

// ErrLabelSpace reports an edge label past the MaxEdgeLabels-th distinct one.
var ErrLabelSpace = errors.New("graph: more than 65535 distinct edge labels")

// ranks are the label ranks a snapshot's keys pack: each kind's codes in
// rank order, and per code up to the largest ranked one its edge rank and
// neighbour rank (capped at overflowRank), -1 where it has none.
type ranks struct {
	edgeLabels, nodeLabels []Sym
	rankOf                 []labelRank
}

type labelRank struct{ edge, nbr int32 }

// rank returns code c's ranks, both -1 for a code ranked as no label.
func (r *ranks) rank(c Sym) labelRank {
	if uint(c) < uint(len(r.rankOf)) {
		return r.rankOf[c]
	}
	return labelRank{-1, -1}
}

// add ranks code c after every edge label, or every node label.
func (r *ranks) add(c Sym, edge bool) {
	for len(r.rankOf) <= int(c) {
		r.rankOf = append(r.rankOf, labelRank{-1, -1})
	}
	if edge {
		r.rankOf[c].edge = int32(len(r.edgeLabels))
		r.edgeLabels = append(r.edgeLabels, c)
	} else {
		r.rankOf[c].nbr = min(int32(len(r.nodeLabels)), overflowRank)
		r.nodeLabels = append(r.nodeLabels, c)
	}
}

// key returns the key of an entry with edge label l whose neighbour
// carries node label nl; both must be ranked.
func (r *ranks) key(l, nl Sym) LabelKey {
	return LabelKey(r.rankOf[l].edge)<<nbrBits | LabelKey(r.rankOf[nl].nbr)
}

// AttrPair is one interned attribute of a node's tuple: attribute name and
// value as symbol codes. Within a node's range pairs are sorted by Name,
// so attribute lookup is a binary search over int32 pairs and literal
// evaluation (core.LiteralProgram) is pure integer comparison.
type AttrPair struct {
	Name Sym
	Val  Sym
}

// Snapshot is a compiled CSR (compressed sparse row) view of a Graph:
// flat adjacency arrays with per-node offsets, interned labels, and
// contiguous per-label candidate ranges. It is the execution representation
// the match engine and the validation engines run against.
//
// Lifecycle: build/mutate a *Graph, call Freeze, then match against the
// Snapshot. A Snapshot is safe for concurrent readers (all engines share
// one across workers). It reflects the graph at freeze time; mutating the
// source graph afterwards invalidates it — call Freeze again to get a fresh
// view (Freeze is cached and only rebuilds after a mutation). Attribute
// tuples are copied into an interned arena at freeze time, so later
// mutations of the source graph's maps never leak into a frozen view.
//
// A frozen Snapshot is immutable. The one exception is an Overlay's read
// view: a Snapshot sharing a frozen base's arrays as-is (heap or mapped)
// plus the overlay's delta (a patch), which changes only through that
// Overlay, between update batches. Every accessor consults the patch only
// when it is non-nil, so frozen reads stay direct, inlinable array loads.
// A view is never persisted as if it were frozen: Flat reports
// ErrPatchedView; Freeze of the graph flattens the view into a frozen
// snapshot first.
type Snapshot struct {
	g     *Graph
	syms  *Symbols
	patch *patch // an Overlay's delta; nil on every frozen snapshot

	labels []Sym // node label codes, indexed by NodeID

	attrOff   []int32 // len NumNodes+1; attrPairs[attrOff[v]:attrOff[v+1]] is v's tuple
	attrPairs []AttrPair

	outOff []int32 // len NumNodes+1; out[outOff[v]:outOff[v+1]] is v's out-adjacency
	out    []CSREdge
	inOff  []int32
	in     []CSREdge

	classOff []int32  // per Sym: offsets into classNodes (node-label classes)
	classes  []NodeID // nodes grouped by label code, ascending IDs within a class

	heavy []NodeID // the heavy-node list, ascending (see Heavy)

	held *holders // value holders of the frozen arrays, shared with every view over them

	ranks // the label ranks the keys pack

	scratch sync.Pool // *EpochSet, reused across Neighborhood traversals
}

// patch is an Overlay's delta over the base arrays its view shares. Each
// node has one slot per direction and one for its tuple, indexed by
// NodeID: 0 reads the base arrays (nothing, for a node inserted after the
// freeze), k > 0 reads the k-th copied list. So a read of a node no update
// touched costs one slot load beside the base read, never a hash.
type patch struct {
	outSlot, inSlot []int32          // per node: 0, or an index into lists
	lists           [][]CSREdge      // copied adjacency in compareCSR order; lists[0] is unused
	attrSlot        []int32          // per node: 0, or an index into tuples
	tuples          [][]AttrPair     // copied tuples, sorted by Name; tuples[0] is unused
	tupled          map[Sym][]NodeID // per label, the nodes holding a tuple slot, in copy order
	touched         []NodeID         // nodes holding an out or in slot, in first-touch order
	labels          []Sym            // labels of nodes inserted after the freeze
	classes         map[Sym][]NodeID // merged candidate classes for labels that gained nodes
	edges           int              // edges inserted after the freeze
	version         uint64           // graph version the patch reflects
}

// newPatch returns the empty patch of a view over base at graph version
// version: three zeroed slot arrays, no list copied. The slot arrays have
// room for n/4 inserted nodes (CompactFraction of the base's), so the
// inserts a view takes before Settle compacts it do not regrow them.
func newPatch(base *Snapshot, version uint64) *patch {
	n := base.NumNodes()
	return &patch{
		outSlot:  make([]int32, n, n+n/4),
		inSlot:   make([]int32, n, n+n/4),
		attrSlot: make([]int32, n, n+n/4),
		lists:    make([][]CSREdge, 1),
		tuples:   make([][]AttrPair, 1),
		tupled:   make(map[Sym][]NodeID),
		classes:  make(map[Sym][]NodeID),
		version:  version,
	}
}

// Freeze returns the CSR snapshot of g, building it on first use and
// whenever the graph has been mutated since the last call; otherwise the
// cached snapshot is returned. O(|V| + |E| log d) to build (buildSnapshot:
// the sort shared by up to GOMAXPROCS goroutines, at most one per
// minSizePerWorker of |V|+|E|), O(1) when cached. A sealed graph is
// compacted instead: its read source (an overlay's patched view) is
// flattened into fresh arrays in O(|V| + |E|), with no sort and no
// re-interning (flatten), and becomes the read source. One mutex is held
// across the build, so concurrent Freeze calls on an unmutated graph
// share one snapshot and one build. Freeze concurrent with mutation is not
// safe, just as matching during mutation never was. The returned Snapshot
// itself is safe to share across goroutines.
func (g *Graph) Freeze() *Snapshot {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if g.snap != nil && g.snapVersion == g.version {
		return g.snap
	}
	var s *Snapshot
	if v := g.sealed.Load(); v != nil {
		s = flatten(v)
		g.sealed.Store(s)
	} else {
		s = buildSnapshot(g, workersFor(g.Size()))
	}
	s.recordHeavy()
	g.snap, g.snapVersion = s, g.version
	g.snapBuilds.Add(1)
	return s
}

// BuildSnapshot builds a fresh snapshot of a building graph with exactly
// `workers` workers (at least one), bypassing Freeze's cache and its
// size-based worker count; it panics on a sealed graph. The differential
// tests and the freeze benchmarks drive it; regular callers should use
// Freeze.
func (g *Graph) BuildSnapshot(workers int) *Snapshot {
	g.mustBuild("BuildSnapshot")
	return buildSnapshot(g, max(workers, 1))
}

// buildSnapshot compiles g's maps into a frozen snapshot in three steps,
// the last two shared by `workers` goroutines.
//
// Interning and filling run serially, in one pass over the maps. Names
// are interned in a fixed order — node labels by ID, out-edge labels by
// (source, position), attribute names sorted, values by (node, sorted
// name) — so the codes depend on the graph alone, and the codes go
// straight into the out arena (until the sort pass keys it) and the tuple
// arena; the labels are ranked in code order. The table is private until
// the build returns, so it interns without the lock.
//
// Sorting is one drain pass over degree-balanced node ranges. Each range
// keys its out rows and fills its in rows through the finished table
// (AddEdge writes both halves of an edge, so every in-edge label is
// already interned), sorts both (compareCSR) and sorts its tuples by name
// code. Last, labelClasses groups the nodes by label. The output does not
// depend on the worker count (TestParallelFreezeEquivalence).
func buildSnapshot(g *Graph, workers int) *Snapshot {
	n := g.NumNodes()
	syms := NewSymbols()
	s := &Snapshot{
		g:       g,
		syms:    syms,
		labels:  make([]Sym, n),
		attrOff: make([]int32, n+1),
		outOff:  make([]int32, n+1),
		out:     make([]CSREdge, 0, g.edges),
		inOff:   make([]int32, n+1),
		held:    new(holders),
	}
	for v := 0; v < n; v++ {
		s.labels[v] = syms.intern(g.labels[v])
	}
	for v := 0; v < n; v++ {
		s.outOff[v] = int32(len(s.out))
		for _, he := range g.out[v] {
			s.out = append(s.out, CSREdge{To: he.To, Label: LabelKey(syms.intern(he.Label))})
		}
		s.inOff[v+1] = s.inOff[v] + int32(len(g.in[v]))
	}
	s.outOff[n] = int32(len(s.out))
	s.rankLabels(syms.Len())
	// Copying the tuples into a (Name, Val) arena (instead of sharing the
	// graph's maps by reference) is what lets literal evaluation run
	// without string hashing, and a frozen view never observes a later
	// map mutation.
	distinct := make(map[string]struct{}, 8)
	total := 0
	for _, a := range g.attrs {
		total += len(a)
		for k := range a {
			distinct[k] = struct{}{}
		}
	}
	attrNames := make([]string, 0, len(distinct))
	for k := range distinct {
		attrNames = append(attrNames, k)
	}
	slices.Sort(attrNames)
	for _, k := range attrNames {
		syms.intern(k)
	}
	s.attrPairs = make([]AttrPair, 0, total)
	var keys []string
	for v := 0; v < n; v++ {
		s.attrOff[v] = int32(len(s.attrPairs))
		a := g.attrs[v]
		keys = keys[:0]
		for k := range a {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			s.attrPairs = append(s.attrPairs, AttrPair{Name: syms.intern(k), Val: syms.intern(a[k])})
		}
	}
	s.attrOff[n] = int32(len(s.attrPairs))

	codes := syms.view()
	s.in = make([]CSREdge, s.inOff[n])
	ranges := shardByOffsets(workers*tasksPerWorker, s.outOff, s.inOff, s.attrOff)
	drain(workers, len(ranges), func(i int) {
		for v := ranges[i].lo; v < ranges[i].hi; v++ {
			in := s.in[s.inOff[v]:s.inOff[v+1]]
			for j, he := range g.in[v] {
				in[j] = CSREdge{To: he.To, Label: s.key(codes.code(he.Label), s.labels[he.To])}
			}
			out := s.out[s.outOff[v]:s.outOff[v+1]]
			for j, e := range out {
				out[j].Label = s.key(Sym(e.Label), s.labels[e.To])
			}
			sortCSR(in, s.Label)
			sortCSR(out, s.Label)
			// The shared namespace can give an attribute name a code out
			// of lexicographic order (when it collides with an earlier
			// label), so the tuple is re-sorted by Name code.
			sortAttrPairs(s.attrPairs[s.attrOff[v]:s.attrOff[v+1]])
		}
	})
	s.classOff, s.classes = labelClasses(s.labels, syms.Len())
	return s
}

// rankLabels ranks each kind of label in ascending code order, reading a
// build's out arena while it holds edge label codes (at most MaxEdgeLabels:
// Graph.AddEdge refuses more). Every label code is below n: labels are
// interned first.
func (s *Snapshot) rankLabels(n int) {
	node, edge := make([]bool, n), make([]bool, n)
	for _, l := range s.labels {
		node[l] = true
	}
	for _, e := range s.out {
		edge[e.Label] = true
	}
	for c := range n {
		if node[c] {
			s.add(Sym(c), false)
		}
		if edge[c] {
			s.add(Sym(c), true)
		}
	}
}

// labelClasses groups the nodes by label code, nsyms codes in all: a
// counting sort that iterates nodes in ID order, so every class is
// ascending, preserving the deterministic candidate order of the mutable
// graph's label index.
func labelClasses(labels []Sym, nsyms int) ([]int32, []NodeID) {
	off := make([]int32, nsyms+1)
	for _, l := range labels {
		off[l+1]++
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	classes := make([]NodeID, len(labels))
	fill := append([]int32(nil), off[:nsyms]...)
	for v, l := range labels {
		classes[fill[l]] = NodeID(v)
		fill[l]++
	}
	return off, classes
}

// flatten copies a view (an Overlay's patched view, or any snapshot) into
// a fresh frozen snapshot through the view's own accessors. Each adjacency
// range is already in key order under the view's ranks and each tuple
// name-sorted under the view's symbol table, both of which the flat
// snapshot shares, so compaction is a sequential copy: no sort, no
// re-intern, no re-rank. The result equals a fresh freeze of the same
// graph by names, not by codes or ranks.
func flatten(v *Snapshot) *Snapshot {
	n, m := v.NumNodes(), v.NumEdges()
	s := &Snapshot{
		g:         v.g,
		syms:      v.syms,
		labels:    make([]Sym, n),
		attrOff:   make([]int32, n+1),
		attrPairs: make([]AttrPair, 0, len(v.attrPairs)),
		outOff:    make([]int32, n+1),
		out:       make([]CSREdge, 0, m),
		inOff:     make([]int32, n+1),
		in:        make([]CSREdge, 0, m),
		held:      new(holders),
		ranks:     v.ranks,
	}
	for u := 0; u < n; u++ {
		id := NodeID(u)
		s.labels[u] = v.Label(id)
		s.attrOff[u] = int32(len(s.attrPairs))
		s.attrPairs = append(s.attrPairs, v.AttrPairs(id)...)
		s.outOff[u] = int32(len(s.out))
		s.out = append(s.out, v.Out(id)...)
		s.inOff[u] = int32(len(s.in))
		s.in = append(s.in, v.In(id)...)
	}
	s.attrOff[n] = int32(len(s.attrPairs))
	s.outOff[n] = int32(len(s.out))
	s.inOff[n] = int32(len(s.in))
	s.classOff, s.classes = labelClasses(s.labels, v.syms.Len())
	return s
}

// EdgeLabel returns the code of the edge label a key ranks.
func (s *Snapshot) EdgeLabel(k LabelKey) Sym { return s.edgeLabels[k>>nbrBits] }

// sortCSR orders one node's adjacency by compareCSR, reading neighbour
// labels through label.
func sortCSR(es []CSREdge, label func(NodeID) Sym) {
	slices.SortFunc(es, func(a, b CSREdge) int { return compareCSR(a, b, label) })
}

// compareCSR is the adjacency order: key, then neighbour, with the
// neighbour's label code (read through label) first inside the overflow
// neighbour rank, so each node label's run is contiguous and To-sorted
// there too.
func compareCSR(a, b CSREdge, label func(NodeID) Sym) int {
	if a.Label != b.Label {
		return cmp.Compare(a.Label, b.Label)
	}
	if a.Label&nbrMask == overflowRank {
		if c := cmp.Compare(label(a.To), label(b.To)); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.To, b.To)
}

// sortAttrPairs orders a node's tuple by Name code. Tuples are tiny, so an
// insertion sort beats sort.Slice's closure machinery during freeze.
func sortAttrPairs(ps []AttrPair) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Name < ps[j-1].Name; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Syms returns the snapshot's symbol table; patterns are compiled against
// it (pattern.Compile).
func (s *Snapshot) Syms() *Symbols { return s.syms }

// Graph returns the source graph.
func (s *Snapshot) Graph() *Graph { return s.g }

// View returns s: a Snapshot is its own read view. An Overlay inherits
// View from its embedded patched view, so every Topology reads through
// one concrete type.
func (s *Snapshot) View() *Snapshot { return s }

// Patched reports whether s is an Overlay's patched view rather than a
// frozen snapshot: its symbol table grows with updates, and it must not
// be persisted or shipped as if it were frozen.
func (s *Snapshot) Patched() bool { return s.patch != nil }

// NumNodes returns |V|: at freeze time, plus a view's inserted nodes.
func (s *Snapshot) NumNodes() int {
	if s.patch != nil {
		return len(s.labels) + len(s.patch.labels)
	}
	return len(s.labels)
}

// NumEdges returns |E|: at freeze time, plus a view's inserted edges.
func (s *Snapshot) NumEdges() int {
	if s.patch != nil {
		return len(s.out) + s.patch.edges
	}
	return len(s.out)
}

// Label returns the interned label code of node v.
func (s *Snapshot) Label(v NodeID) Sym {
	if s.patch != nil && int(v) >= len(s.labels) {
		return s.patch.labels[int(v)-len(s.labels)]
	}
	return s.labels[v]
}

// LabelName returns the string label of node v.
func (s *Snapshot) LabelName(v NodeID) string { return s.syms.Name(s.Label(v)) }

// Attr returns the value of attribute a on node v, read from the interned
// arena or a view's patched tuples (string-keyed convenience; hot paths
// use AttrSym).
func (s *Snapshot) Attr(v NodeID, a string) (string, bool) {
	val, ok := s.AttrSym(v, s.syms.Lookup(a))
	if !ok {
		return "", false
	}
	return s.syms.Name(val), true
}

// AttrSym returns the interned value of attribute name on node v, or
// (NoSym, false) when the node does not carry it. Lookup is a binary
// search over the node's (Name, Val) pairs — no string hashing, no map.
// name == NoSym (an attribute the frozen graph never mentions) matches
// nothing.
func (s *Snapshot) AttrSym(v NodeID, name Sym) (Sym, bool) {
	return lookupAttr(s.AttrPairs(v), name)
}

// lookupAttr is the lower-bound binary search over a name-sorted tuple.
func lookupAttr(ps []AttrPair, name Sym) (Sym, bool) {
	lo, hi := 0, len(ps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ps[mid].Name < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ps) && ps[lo].Name == name {
		return ps[lo].Val, true
	}
	return NoSym, false
}

// AttrPairs returns v's attribute tuple as interned pairs sorted by Name.
// Shared; read-only.
func (s *Snapshot) AttrPairs(v NodeID) []AttrPair {
	if s.patch != nil {
		return s.patchedAttrs(v)
	}
	return s.attrPairs[s.attrOff[v]:s.attrOff[v+1]]
}

// patchedAttrs is a view's tuple read: v's copied tuple when an update
// wrote it, its base range otherwise, nothing for an inserted node that
// carries no attribute.
func (s *Snapshot) patchedAttrs(v NodeID) []AttrPair {
	if k := s.patch.attrSlot[v]; k != 0 {
		return s.patch.tuples[k]
	}
	if int(v) < len(s.labels) {
		return s.attrPairs[s.attrOff[v]:s.attrOff[v+1]]
	}
	return nil
}

// Out returns v's out-adjacency range, in compareCSR order.
// Shared; read-only.
func (s *Snapshot) Out(v NodeID) []CSREdge {
	if s.patch != nil {
		return s.patched(s.patch.outSlot, v, s.outOff, s.out)
	}
	return s.out[s.outOff[v]:s.outOff[v+1]]
}

// In returns v's in-adjacency range (CSREdge.To is the edge source),
// in compareCSR order. Shared; read-only.
func (s *Snapshot) In(v NodeID) []CSREdge {
	if s.patch != nil {
		return s.patched(s.patch.inSlot, v, s.inOff, s.in)
	}
	return s.in[s.inOff[v]:s.inOff[v+1]]
}

// patched is a view's adjacency read for one direction: v's copied list
// when an update touched it, its base range otherwise, nothing for an
// inserted node no edge reached yet.
func (s *Snapshot) patched(slots []int32, v NodeID, off []int32, arena []CSREdge) []CSREdge {
	if k := slots[v]; k != 0 {
		return s.patch.lists[k]
	}
	if int(v) < len(s.labels) {
		return arena[off[v]:off[v+1]]
	}
	return nil
}

// OutDegree returns the number of out-edges of v.
func (s *Snapshot) OutDegree(v NodeID) int {
	if s.patch != nil {
		return len(s.patched(s.patch.outSlot, v, s.outOff, s.out))
	}
	return int(s.outOff[v+1] - s.outOff[v])
}

// InDegree returns the number of in-edges of v.
func (s *Snapshot) InDegree(v NodeID) int {
	if s.patch != nil {
		return len(s.patched(s.patch.inSlot, v, s.inOff, s.in))
	}
	return int(s.inOff[v+1] - s.inOff[v])
}

// OutWith returns the subrange of v's out-adjacency under the edge label k
// ranks (k = e.Label of an entry e of s): OutWithNbr with that label and
// no neighbour label, To-sorted only within each neighbour label's run.
func (s *Snapshot) OutWith(v NodeID, k LabelKey) []CSREdge {
	return s.labelRange(v, s.EdgeLabel(k), WildcardSym, false)
}

// InWith is OutWith over the in-adjacency.
func (s *Snapshot) InWith(v NodeID, k LabelKey) []CSREdge {
	return s.labelRange(v, s.EdgeLabel(k), WildcardSym, true)
}

// OutWithNbr returns the run of v's out-adjacency with edge label l whose
// neighbours carry node label nl. For a concrete l and nl the run is
// contiguous and To-sorted, the shape IntersectAdjacency wants. nl ==
// WildcardSym drops the neighbour filter (the edge-label group); l ==
// WildcardSym returns the whole range, whatever nl is, because the runs of
// one node label under different edge labels are not adjacent. Two
// bisections of the key column, O(log d).
func (s *Snapshot) OutWithNbr(v NodeID, l, nl Sym) []CSREdge { return s.labelRange(v, l, nl, false) }

// InWithNbr is OutWithNbr over the in-adjacency: the sources of v's
// l-labelled in-edges that carry node label nl.
func (s *Snapshot) InWithNbr(v NodeID, l, nl Sym) []CSREdge { return s.labelRange(v, l, nl, true) }

// labelRange resolves v's adjacency and the run's key bounds in one body,
// so the accessors inline to a single call in the matcher. An unranked
// label (NoSym included) has an empty run.
func (s *Snapshot) labelRange(v NodeID, l, nl Sym, in bool) []CSREdge {
	var es []CSREdge
	if in {
		es = s.In(v)
	} else {
		es = s.Out(v)
	}
	if l == WildcardSym {
		return es
	}
	e, n := s.rank(l).edge, s.rank(nl).nbr
	if e < 0 || n < 0 && nl != WildcardSym {
		return nil
	}
	lo := LabelKey(e) << nbrBits
	if nl == WildcardSym {
		return keyRange(es, lo, lo+nbrMask+1)
	}
	lo |= LabelKey(n)
	if es = keyRange(es, lo, lo+1); n == overflowRank {
		i := s.seekCode(es, nl, 0)
		return es[i : i+s.seekCode(es[i:], nl+1, 0)]
	}
	return es
}

// keyRange bisects es for its entries with keys in [lo, hi).
func keyRange(es []CSREdge, lo, hi LabelKey) []CSREdge {
	i := keyStart(es, lo)
	return es[i : i+keyStart(es[i:], hi)]
}

// keyStart bisects es for its first entry with key at least k.
func keyStart(es []CSREdge, k LabelKey) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].Label < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seek returns the index in es, a slice of one node's adjacency, of the
// first entry at or after (k, v): v's own entry under k if there is one.
// One bisection on (key, To), or inside the overflow rank, on label codes.
func (s *Snapshot) seek(es []CSREdge, k LabelKey, v NodeID) int {
	if k&nbrMask == overflowRank {
		i := keyStart(es, k)
		return i + s.seekCode(es[i:i+keyStart(es[i:], k+1)], s.Label(v), v)
	}
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e := es[mid]; e.Label < k || e.Label == k && e.To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// seekCode bisects an overflow-rank run for its first entry at or after
// (nl, v) in (label code, neighbour) order; v = 0 finds nl's run. It is
// the one search that loads neighbours' labels.
func (s *Snapshot) seekCode(es []CSREdge, nl Sym, v NodeID) int {
	lo, hi := 0, len(es)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if w := s.Label(es[mid].To); w < nl || w == nl && es[mid].To < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// SeenEarlier reports whether es[i].To is the neighbour of an entry before
// es[i] in es, a whole adjacency range of s: per edge-label group, one
// bisection for its entry and one to the next group.
func (s *Snapshot) SeenEarlier(es []CSREdge, i int) bool {
	v := es[i].To
	nbr := LabelKey(s.rank(s.Label(v)).nbr)
	for lo := 0; lo < i; {
		k := es[lo].Label&^nbrMask | nbr
		j := lo + s.seek(es[lo:i], k, v)
		if j < i && es[j] == (CSREdge{To: v, Label: k}) {
			return true
		}
		lo = j + keyStart(es[j:i], k|nbrMask+1)
	}
	return false
}

// HasEdge reports whether a from -[l]-> to edge exists; l == WildcardSym
// matches any label. For a concrete label it is one bisection of from's
// range; for the wildcard it scans the smaller endpoint range (no column
// is sorted across label groups). An endpoint outside the view, negative
// IDs included, has no edges.
func (s *Snapshot) HasEdge(from, to NodeID, l Sym) bool {
	if n := uint(s.NumNodes()); uint(from) >= n || uint(to) >= n {
		return false
	}
	if l == WildcardSym {
		out := s.Out(from)
		if in := s.In(to); len(in) < len(out) {
			for i := range in {
				if in[i].To == from {
					return true
				}
			}
			return false
		}
		for i := range out {
			if out[i].To == to {
				return true
			}
		}
		return false
	}
	return s.hasLabeled(from, to, l)
}

// hasLabeled is HasEdge for exactly label l, the wildcard's code included:
// on a graph's edge "_" is a label of its own. Both endpoints are in view.
func (s *Snapshot) hasLabeled(from, to NodeID, l Sym) bool {
	if s.rank(l).edge < 0 {
		return false
	}
	k := s.key(l, s.Label(to))
	es := s.Out(from)
	i := s.seek(es, k, to)
	return i < len(es) && es[i] == CSREdge{To: to, Label: k}
}

// NodesWith returns the candidate class of label code l: all nodes carrying
// it, ascending. The contiguous range replaces the mutable graph's
// map[string][]NodeID lookup; a view serves its merged class for a label
// that gained nodes. Shared; read-only.
func (s *Snapshot) NodesWith(l Sym) []NodeID {
	if s.patch != nil {
		if m, ok := s.patch.classes[l]; ok {
			return m
		}
	}
	if l < 0 || int(l) >= len(s.classOff)-1 {
		return nil
	}
	return s.classes[s.classOff[l]:s.classOff[l+1]]
}

// NodesWithLabel is NodesWith by label string.
func (s *Snapshot) NodesWithLabel(label string) []NodeID {
	return s.NodesWith(s.syms.Lookup(label))
}

// ClassSize returns the number of nodes carrying label code l.
func (s *Snapshot) ClassSize(l Sym) int { return len(s.NodesWith(l)) }

// Neighborhood returns the nodes within c undirected hops of start,
// including start, sorted ascending — Graph.Neighborhood over the CSR view.
// It fills a set from s.scratch (BlockInto): a pooled set keeps the
// traversal allocation-free — one stamp bump, not an O(|V|) mask — and
// concurrent readers each grab their own. An out-of-range start has none.
func (s *Snapshot) Neighborhood(start NodeID, c int) []NodeID {
	if int(start) < 0 || int(start) >= s.NumNodes() {
		return nil
	}
	set, _ := s.scratch.Get().(*EpochSet)
	if set == nil {
		set = NewEpochSet(s.NumNodes())
	}
	set.Reset()
	s.BlockInto(set, start, c)
	out := slices.Clone(set.Members())
	s.scratch.Put(set)
	slices.Sort(out)
	return out
}
