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
type Graph struct {
	labels  []string // node labels, indexed by NodeID
	attrs   []Attrs  // attribute tuples, indexed by NodeID (may be nil)
	out     [][]HalfEdge
	in      [][]HalfEdge
	byLabel map[string][]NodeID
	edges   int
	degHint int // initial adjacency capacity derived from New's edge hint

	version      uint64     // bumped on every mutation; invalidates the snapshot
	snapMu       sync.Mutex // guards the snapshot cache fields below
	snap         *Snapshot
	snapVersion  uint64
	snapBuilds   uint64     // snapshots actually built (cache misses), for reuse probes
	snapBuilding *snapBuild // in-flight build, so construction runs outside snapMu

	// hollow, when set, is the graph's read source and the maps above
	// are absent: the snapshot a graph was adopted from (AdoptFlat), an
	// Overlay's patched view once the overlay has written, or the flat
	// snapshot Freeze compacted that view into. Reads the snapshot can
	// answer stay on it; a direct mutation, or a read that needs the maps,
	// materializes them from it (ensureThawed in persist.go), and the next
	// overlay write makes the graph hollow again.
	hollow atomic.Pointer[Snapshot]
	thawMu sync.Mutex // serializes concurrent thawing reads

	// live is the graph's one writer-side overlay (see NewOverlay); liveMu
	// serializes starting and compacting it.
	live   atomic.Pointer[Overlay]
	liveMu sync.Mutex
}

// snapBuild tracks one in-flight snapshot construction: concurrent Freeze
// callers for the same version wait on done instead of holding snapMu for
// the whole O(|V|+|E|) build.
type snapBuild struct {
	version uint64
	done    chan struct{}
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
func (g *Graph) SnapshotBuilds() int {
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	return int(g.snapBuilds)
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
	}
	if nodeHint > 0 && edgeHint > nodeHint {
		g.degHint = min(edgeHint/nodeHint, 16)
	}
	return g
}

// AddNode appends a node with the given label and attributes and returns its
// ID. The attrs map is stored by reference; callers must not mutate it after
// the call unless they own the graph. A nil attrs is allowed.
func (g *Graph) AddNode(label string, attrs Attrs) NodeID {
	g.ensureThawed()
	id := NodeID(len(g.labels))
	g.labels = append(g.labels, label)
	g.attrs = append(g.attrs, attrs)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.byLabel == nil {
		g.byLabel = make(map[string][]NodeID)
	}
	g.byLabel[label] = append(g.byLabel[label], id)
	g.version++
	return id
}

// AddEdge inserts a directed labeled edge from -> to. Multi-edges with
// distinct labels are allowed; duplicate (from, to, label) triples are not
// deduplicated (the generators never produce them).
func (g *Graph) AddEdge(from, to NodeID, label string) error {
	g.ensureThawed()
	if !g.Has(from) || !g.Has(to) {
		return fmt.Errorf("graph: edge (%d)-[%s]->(%d) references missing node", from, label, to)
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
func (g *Graph) Has(id NodeID) bool {
	if s := g.pending(); s != nil {
		return id >= 0 && int(id) < s.NumNodes()
	}
	return id >= 0 && int(id) < len(g.labels)
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int {
	if s := g.pending(); s != nil {
		return s.NumNodes()
	}
	return len(g.labels)
}

// NumEdges returns |E|.
func (g *Graph) NumEdges() int {
	if s := g.pending(); s != nil {
		return s.NumEdges()
	}
	return g.edges
}

// Size returns |V| + |E|, the size measure used for data blocks in the
// paper's workload model.
func (g *Graph) Size() int { return g.NumNodes() + g.NumEdges() }

// Label returns L(v).
func (g *Graph) Label(id NodeID) string {
	if s := g.pending(); s != nil {
		return s.LabelName(id)
	}
	return g.labels[id]
}

// NodeAttrs returns the attribute tuple F_A(v). The returned map is shared
// with the graph; treat it as read-only.
func (g *Graph) NodeAttrs(id NodeID) Attrs {
	g.ensureThawed()
	return g.attrs[id]
}

// Attr returns the value of attribute a on node id, and whether the node
// carries that attribute at all. Missing attributes are first-class in GFD
// semantics (a literal x.A = c in X is trivially unsatisfied when h(x) has
// no attribute A).
func (g *Graph) Attr(id NodeID, a string) (string, bool) {
	if s := g.pending(); s != nil {
		return s.Attr(id, a)
	}
	m := g.attrs[id]
	if m == nil {
		return "", false
	}
	v, ok := m[a]
	return v, ok
}

// SetAttr sets attribute a of node id to value v, creating the tuple if the
// node had none. Used by noise injection and repair experiments.
func (g *Graph) SetAttr(id NodeID, a, v string) {
	g.ensureThawed()
	if g.attrs[id] == nil {
		g.attrs[id] = make(Attrs, 1)
	}
	g.attrs[id][a] = v
	g.version++
}

// Relabel changes the label of node id, maintaining the label index. Used
// by type-inconsistency noise injection (Exp-5). It is O(label class size).
func (g *Graph) Relabel(id NodeID, label string) {
	g.ensureThawed()
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

// Out returns the out-adjacency of id. Shared slice; read-only.
func (g *Graph) Out(id NodeID) []HalfEdge {
	g.ensureThawed()
	return g.out[id]
}

// In returns the in-adjacency of id. Shared slice; read-only.
func (g *Graph) In(id NodeID) []HalfEdge {
	g.ensureThawed()
	return g.in[id]
}

// OutDegree returns the number of out-edges of id.
func (g *Graph) OutDegree(id NodeID) int {
	if s := g.pending(); s != nil {
		return s.OutDegree(id)
	}
	return len(g.out[id])
}

// InDegree returns the number of in-edges of id.
func (g *Graph) InDegree(id NodeID) int {
	if s := g.pending(); s != nil {
		return s.InDegree(id)
	}
	return len(g.in[id])
}

// Degree returns total degree (in + out).
func (g *Graph) Degree(id NodeID) int { return g.OutDegree(id) + g.InDegree(id) }

// NodesWithLabel returns the IDs of all nodes labeled l, in insertion order.
// This is the candidate set C(u) for a pattern node u labeled l. The slice
// is shared; read-only.
func (g *Graph) NodesWithLabel(l string) []NodeID {
	g.ensureThawed()
	return g.byLabel[l]
}

// Labels returns the distinct node labels of g in sorted order.
func (g *Graph) Labels() []string {
	g.ensureThawed()
	out := make([]string, 0, len(g.byLabel))
	for l := range g.byLabel {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// LabelCount returns the number of nodes carrying label l.
func (g *Graph) LabelCount(l string) int {
	g.ensureThawed()
	return len(g.byLabel[l])
}

// HasEdge reports whether a from -[label]-> to edge exists. A wildcard match
// on the label is not performed here; see package match for pattern
// semantics.
func (g *Graph) HasEdge(from, to NodeID, label string) bool {
	// Thaw rather than answer from a pending snapshot: the snapshot's
	// HasEdge takes interned codes, and a label the table never saw would
	// intern-miss to NoSym semantics this string API doesn't share.
	g.ensureThawed()
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
// its label (wildcard edge label in a pattern).
func (g *Graph) HasEdgeAnyLabel(from, to NodeID) bool {
	g.ensureThawed()
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
	g.ensureThawed()
	for from := range g.out {
		for _, he := range g.out[from] {
			if !fn(Edge{From: NodeID(from), To: he.To, Label: he.Label}) {
				return
			}
		}
	}
}

// Clone returns a deep copy of g. Attribute maps are copied.
func (g *Graph) Clone() *Graph {
	g.ensureThawed()
	c := &Graph{
		labels:  append([]string(nil), g.labels...),
		attrs:   make([]Attrs, len(g.attrs)),
		out:     make([][]HalfEdge, len(g.out)),
		in:      make([][]HalfEdge, len(g.in)),
		byLabel: make(map[string][]NodeID, len(g.byLabel)),
		edges:   g.edges,
		degHint: g.degHint,
	}
	for i, a := range g.attrs {
		c.attrs[i] = a.Clone()
	}
	for i := range g.out {
		c.out[i] = append([]HalfEdge(nil), g.out[i]...)
		c.in[i] = append([]HalfEdge(nil), g.in[i]...)
	}
	for l, ids := range g.byLabel {
		c.byLabel[l] = append([]NodeID(nil), ids...)
	}
	return c
}

// InducedSubgraph returns the subgraph induced by the node set keep: it
// contains exactly the nodes of keep and all edges of g whose endpoints are
// both in keep. Node IDs are remapped densely; the second return value maps
// original IDs to new IDs. Attribute tuples are copied: a SetAttr on the
// subgraph must bump only the subgraph's version, never mutate the parent
// behind its cached snapshot.
func (g *Graph) InducedSubgraph(keep []NodeID) (*Graph, map[NodeID]NodeID) {
	g.ensureThawed()
	remap := make(map[NodeID]NodeID, len(keep))
	sub := New(len(keep), 0)
	for _, id := range keep {
		if _, dup := remap[id]; dup {
			continue
		}
		remap[id] = sub.AddNode(g.labels[id], g.attrs[id].Clone())
	}
	for old, nw := range remap {
		for _, he := range g.out[old] {
			if to, ok := remap[he.To]; ok {
				sub.MustAddEdge(nw, to, he.Label)
			}
		}
	}
	return sub, remap
}

// String returns a short description of the graph, e.g. "graph(|V|=9, |E|=14)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d)", g.NumNodes(), g.NumEdges())
}
