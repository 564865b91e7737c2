// Package graph implements the property-graph substrate of the GFD system:
// directed graphs G = (V, E, L, F_A) with labeled nodes and edges and
// attribute tuples on nodes, as defined in Section 2 of Fan, Wu & Xu,
// "Functional Dependencies for Graphs" (SIGMOD 2016).
//
// The representation is index-based: node identifiers are dense integers
// assigned in insertion order, adjacency is stored as in/out half-edge
// slices, and a label index supports candidate lookup for pattern matching.
// All iteration orders are deterministic.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a node within a Graph. IDs are dense: a graph with n
// nodes uses IDs 0..n-1 in insertion order.
type NodeID int32

// Invalid is returned by lookups that find no node.
const Invalid NodeID = -1

// Attrs is the attribute tuple F_A(v) of a node: attribute name -> constant.
// Attribute values are strings; the paper's constants are uninterpreted.
type Attrs map[string]string

// Clone returns a copy of the tuple (nil stays nil).
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	m := make(Attrs, len(a))
	for k, v := range a {
		m[k] = v
	}
	return m
}

// HalfEdge is one endpoint's view of a labeled directed edge.
type HalfEdge struct {
	To    NodeID // the other endpoint (target for out-edges, source for in-edges)
	Label string // edge label L(e)
}

// Edge is a fully specified directed labeled edge.
type Edge struct {
	From  NodeID
	To    NodeID
	Label string
}

// Graph is a directed property graph with labeled nodes and edges and
// per-node attribute tuples. The zero value is an empty graph ready to use.
//
// A graph is in one of two states, and moves between them one way only.
// It is building while its maps below hold the truth: generators and the
// text reader fill it, and every mutator writes the maps. It is sealed
// once a snapshot is its read source: from birth when it is adopted
// (AdoptFlat), or from the first write of an Overlay over it. A sealed
// graph has no maps; every read answers from the read source, and AddNode,
// AddEdge and SetAttr become writes through the graph's live overlay
// (NewOverlay), which patch the view without building a snapshot. Clone
// turns either state into a fresh building graph.
type Graph struct {
	labels  []string // node labels, indexed by NodeID
	attrs   []Attrs  // attribute tuples, indexed by NodeID (may be nil)
	out     [][]HalfEdge
	in      [][]HalfEdge
	byLabel map[string][]NodeID
	edgeLab map[string]struct{} // the distinct edge labels, at most MaxEdgeLabels
	edges   int
	degHint int // initial adjacency capacity derived from New's edge hint

	version     uint64     // bumped on every mutation; invalidates the snapshot
	snapMu      sync.Mutex // held across a build; guards snap and snapVersion
	snap        *Snapshot
	snapVersion uint64
	snapBuilds  atomic.Uint64 // snapshots actually built (cache misses), for reuse probes

	// sealed is the read source of a sealed graph, nil while it is
	// building: the snapshot it was adopted from, the patched view of the
	// overlay that last wrote it, or the flat snapshot Freeze compacted
	// that view into.
	sealed atomic.Pointer[Snapshot]

	// live is the graph's one writer-side overlay (see NewOverlay); liveMu
	// serializes starting and compacting it.
	live   atomic.Pointer[Overlay]
	liveMu sync.Mutex
}

// Version returns the graph's mutation counter. Every mutating call
// (AddNode, AddEdge, SetAttr, Relabel, and the same writes through an
// Overlay) bumps it; sessions and other snapshot holders compare versions
// to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// SnapshotBuilds returns how many times Freeze actually built a snapshot
// (as opposed to returning the cached one), compactions of an overlay's
// view included. It is the freeze-count probe the session-reuse tests
// assert on: one build per graph version, no matter how many engines and
// sweep rounds share the graph.
func (g *Graph) SnapshotBuilds() int { return int(g.snapBuilds.Load()) }

// Sealed reports whether g is sealed: a snapshot is its read source and
// its writes go through its live overlay (see Graph).
func (g *Graph) Sealed() bool { return g.sealed.Load() != nil }

// readThrough seals g over view and bumps the version: the Overlay's
// write hook, in place of mutating the graph. The first write drops a
// building graph's maps, so nothing keeps a second copy of the data in
// step with the view.
func (g *Graph) readThrough(view *Snapshot) uint64 {
	if g.sealed.Load() != view {
		g.labels, g.attrs, g.out, g.in, g.byLabel, g.edgeLab = nil, nil, nil, nil, nil, nil
		g.sealed.Store(view)
	}
	g.version++
	return g.version
}

// mustBuild panics on a sealed graph: op needs the maps only a building
// graph has.
func (g *Graph) mustBuild(op string) {
	if g.Sealed() {
		panic("graph: " + op + " on a sealed graph")
	}
}

// New returns an empty graph with capacity hints for nodes and edges. The
// edge hint presizes per-node adjacency storage (expected average degree),
// avoiding append-growth churn while generators bulk-load edges.
func New(nodeHint, edgeHint int) *Graph {
	g := &Graph{
		labels:  make([]string, 0, nodeHint),
		attrs:   make([]Attrs, 0, nodeHint),
		out:     make([][]HalfEdge, 0, nodeHint),
		in:      make([][]HalfEdge, 0, nodeHint),
		byLabel: make(map[string][]NodeID),
		edgeLab: make(map[string]struct{}),
	}
	if nodeHint > 0 && edgeHint > nodeHint {
		g.degHint = min(edgeHint/nodeHint, 16)
	}
	return g
}

// AddNode appends a node with the given label and attributes and returns its
// ID. A building graph stores attrs by reference; callers must not mutate
// it after the call unless they own the graph. A nil attrs is allowed.
func (g *Graph) AddNode(label string, attrs Attrs) NodeID {
	if g.Sealed() {
		return NewOverlay(g).AddNode(label, attrs)
	}
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, label)
	g.attrs = append(g.attrs, attrs)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.byLabel == nil {
		g.byLabel, g.edgeLab = make(map[string][]NodeID), make(map[string]struct{})
	}
	g.byLabel[label] = append(g.byLabel[label], id)
	g.version++
	return id
}

// AddEdge inserts a directed labeled edge from -> to. Multi-edges with
// distinct labels are allowed; duplicate (from, to, label) triples are not
// deduplicated (the generators never produce them). A label past the
// MaxEdgeLabels-th distinct one fails with ErrLabelSpace.
func (g *Graph) AddEdge(from, to NodeID, label string) error {
	if g.Sealed() {
		return NewOverlay(g).AddEdge(from, to, label)
	}
	if !g.Has(from) || !g.Has(to) {
		return fmt.Errorf("graph: edge (%d)-[%s]->(%d) references missing node", from, label, to)
	}
	if _, ok := g.edgeLab[label]; !ok {
		if len(g.edgeLab) == MaxEdgeLabels {
			return ErrLabelSpace
		}
		g.edgeLab[label] = struct{}{}
	}
	if g.degHint > 0 {
		if g.out[from] == nil {
			g.out[from] = make([]HalfEdge, 0, g.degHint)
		}
		if g.in[to] == nil {
			g.in[to] = make([]HalfEdge, 0, g.degHint)
		}
	}
	g.out[from] = append(g.out[from], HalfEdge{To: to, Label: label})
	g.in[to] = append(g.in[to], HalfEdge{To: from, Label: label})
	g.edges++
	g.version++
	return nil
}

// MustAddEdge is AddEdge that panics on error; for tests and generators that
// construct graphs from trusted IDs.
func (g *Graph) MustAddEdge(from, to NodeID, label string) {
	if err := g.AddEdge(from, to, label); err != nil {
		panic(err)
	}
}

// Has reports whether id is a node of g.
func (g *Graph) Has(id NodeID) bool { return id >= 0 && int(id) < g.NumNodes() }

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if s := g.sealed.Load(); s != nil {
		return s.NumNodes()
	}
	return len(g.labels)
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	if s := g.sealed.Load(); s != nil {
		return s.NumEdges()
	}
	return g.edges
}

// Size returns |V| + |E|, the size measure used for data blocks in the
// paper's workload model.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Label returns L(v).
func (g *Graph) Label(id NodeID) string {
	if s := g.sealed.Load(); s != nil {
		return s.LabelName(id)
	}
	return g.labels[id]
}

// NodeAttrs returns the attribute tuple F_A(v), nil when v has none. A
// building graph returns its own map and a sealed one a fresh copy; treat
// it as read-only.
func (g *Graph) NodeAttrs(id NodeID) Attrs {
	s := g.sealed.Load()
	if s == nil {
		return g.attrs[id]
	}
	ps := s.AttrPairs(id)
	if len(ps) == 0 {
		return nil
	}
	m := make(Attrs, len(ps))
	for _, p := range ps {
		m[s.syms.Name(p.Name)] = s.syms.Name(p.Val)
	}
	return m
}

// Attr returns the value of attribute a on node id, and whether the node
// carries that attribute at all. Missing attributes are first-class in GFD
// semantics (a literal x.A = c in X is trivially unsatisfied when h(x) has
// no attribute A).
func (g *Graph) Attr(id NodeID, a string) (string, bool) {
	if s := g.sealed.Load(); s != nil {
		return s.Attr(id, a)
	}
	v, ok := g.attrs[id][a]
	return v, ok
}

// SetAttr sets attribute a of node id to value v, creating the tuple if the
// node had none. Used by noise injection and repair experiments.
func (g *Graph) SetAttr(id NodeID, a, v string) {
	if g.Sealed() {
		NewOverlay(g).SetAttr(id, a, v)
		return
	}
	if g.attrs[id] == nil {
		g.attrs[id] = make(Attrs, 1)
	}
	g.attrs[id][a] = v
	g.version++
}

// Relabel changes the label of node id, maintaining the label index. Used
// by type-inconsistency noise injection (Exp-5). It is O(label class size)
// and panics on a sealed graph: an overlay has no relabel write.
func (g *Graph) Relabel(id NodeID, label string) {
	g.mustBuild("Relabel")
	old := g.labels[id]
	if old == label {
		return
	}
	ids := g.byLabel[old]
	for i, v := range ids {
		if v == id {
			g.byLabel[old] = append(ids[:i], ids[i+1:]...)
			break
		}
	}
	if len(g.byLabel[old]) == 0 {
		delete(g.byLabel, old)
	}
	g.labels[id] = label
	g.byLabel[label] = insertSorted(g.byLabel[label], id)
	g.version++
}

// insertSorted keeps label class slices in ascending NodeID order so that
// candidate iteration stays deterministic after relabeling.
func insertSorted(ids []NodeID, id NodeID) []NodeID {
	pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = id
	return ids
}

// Out returns the out-adjacency of id: a building graph's own slice in
// insertion order, a sealed graph's in snapshot order, freshly built.
// Read-only.
func (g *Graph) Out(id NodeID) []HalfEdge {
	if s := g.sealed.Load(); s != nil {
		return halfEdges(s, s.Out(id))
	}
	return g.out[id]
}

// In returns the in-adjacency of id, like Out.
func (g *Graph) In(id NodeID) []HalfEdge {
	if s := g.sealed.Load(); s != nil {
		return halfEdges(s, s.In(id))
	}
	return g.in[id]
}

// halfEdges names the labels of one adjacency range of s.
func halfEdges(s *Snapshot, es []CSREdge) []HalfEdge {
	if len(es) == 0 {
		return nil
	}
	out := make([]HalfEdge, len(es))
	for i, e := range es {
		out[i] = HalfEdge{To: e.To, Label: s.syms.Name(s.EdgeLabel(e.Label))}
	}
	return out
}

// OutDegree returns the number of out-edges of id.
func (g *Graph) OutDegree(id NodeID) int {
	if s := g.sealed.Load(); s != nil {
		return s.OutDegree(id)
	}
	return len(g.out[id])
}

// InDegree returns the number of in-edges of id.
func (g *Graph) InDegree(id NodeID) int {
	if s := g.sealed.Load(); s != nil {
		return s.InDegree(id)
	}
	return len(g.in[id])
}

// Degree returns total degree (in + out).
func (g *Graph) Degree(id NodeID) int { return g.OutDegree(id) + g.InDegree(id) }

// NodesWithLabel returns the IDs of all nodes labeled l, ascending. This is
// the candidate set C(u) for a pattern node u labeled l. The slice is
// shared; read-only.
func (g *Graph) NodesWithLabel(l string) []NodeID {
	if s := g.sealed.Load(); s != nil {
		return s.NodesWithLabel(l)
	}
	return g.byLabel[l]
}

// Labels returns the distinct node labels of g in sorted order.
func (g *Graph) Labels() []string {
	out := []string{}
	if s := g.sealed.Load(); s != nil {
		for l, n := Sym(0), Sym(s.syms.Len()); l < n; l++ {
			if len(s.NodesWith(l)) > 0 {
				out = append(out, s.syms.Name(l))
			}
		}
	} else {
		for l := range g.byLabel {
			out = append(out, l)
		}
	}
	sort.Strings(out)
	return out
}

// LabelCount returns the number of nodes carrying label l.
func (g *Graph) LabelCount(l string) int { return len(g.NodesWithLabel(l)) }

// HasEdge reports whether a from -[label]-> to edge exists; an endpoint
// outside the graph has none. A wildcard match on the label is not
// performed here; see package match for pattern semantics.
func (g *Graph) HasEdge(from, to NodeID, label string) bool {
	if n := uint(g.NumNodes()); uint(from) >= n || uint(to) >= n {
		return false
	}
	if s := g.sealed.Load(); s != nil {
		// Not HasEdge: "_", WildcardSym there, is a label of its own here.
		return s.hasLabeled(from, to, s.syms.Lookup(label))
	}
	// Scan the smaller adjacency list of the two endpoints.
	if len(g.out[from]) <= len(g.in[to]) {
		for _, he := range g.out[from] {
			if he.To == to && he.Label == label {
				return true
			}
		}
		return false
	}
	for _, he := range g.in[to] {
		if he.To == from && he.Label == label {
			return true
		}
	}
	return false
}

// HasEdgeAnyLabel reports whether any from -> to edge exists regardless of
// its label (wildcard edge label in a pattern); an endpoint outside the
// graph has none.
func (g *Graph) HasEdgeAnyLabel(from, to NodeID) bool {
	if n := uint(g.NumNodes()); uint(from) >= n || uint(to) >= n {
		return false
	}
	if s := g.sealed.Load(); s != nil {
		return s.HasEdge(from, to, WildcardSym)
	}
	if len(g.out[from]) <= len(g.in[to]) {
		for _, he := range g.out[from] {
			if he.To == to {
				return true
			}
		}
		return false
	}
	for _, he := range g.in[to] {
		if he.To == from {
			return true
		}
	}
	return false
}

// Edges calls fn for every edge of g in deterministic (source, position)
// order. Iteration stops early if fn returns false.
func (g *Graph) Edges(fn func(Edge) bool) {
	for from := NodeID(0); int(from) < g.NumNodes(); from++ {
		for _, he := range g.Out(from) {
			if !fn(Edge{From: from, To: he.To, Label: he.Label}) {
				return
			}
		}
	}
}

// Clone returns a deep copy of g as a building graph, whichever state g is
// in; g itself does not change (a sealed graph stays sealed). The copy
// keeps node IDs, labels, attribute tuples and each node's out-adjacency
// order.
func (g *Graph) Clone() *Graph {
	n := g.NumNodes()
	c := New(n, g.NumEdges())
	for v := NodeID(0); int(v) < n; v++ {
		c.AddNode(g.Label(v), g.NodeAttrs(v).Clone())
	}
	g.Edges(func(e Edge) bool {
		c.MustAddEdge(e.From, e.To, e.Label)
		return true
	})
	return c
}

// String returns a short description of the graph, e.g. "graph(|V|=9, |E|=14)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d)", g.NumNodes(), g.NumEdges())
}
