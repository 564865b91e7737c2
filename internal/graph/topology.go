package graph

// Topology is the compiled execution view of a graph that the match and
// validation engines run against: interned labels, adjacency sorted by
// (edge label, neighbor label, neighbor), contiguous per-label candidate
// classes, interned attribute lookup, and the BFS primitives the workload
// model is built on.
//
// There is one read path, *Snapshot: either frozen (built by Graph.Freeze
// or adopted from a .gfds image) or an Overlay's patched view, which
// shares a frozen base's arrays and consults the overlay's delta for what
// updates changed. *Overlay satisfies Topology through its embedded view,
// so the incremental detector and the session's post-update bundles run on
// the same code as the batch engines, without re-freezing per update
// batch.
//
// Every Topology is safe for concurrent readers while it is not being
// mutated; mutating an Overlay (or the underlying Graph) concurrently with
// matching is not safe — the same contract Graph.Freeze always had.
type Topology interface {
	// View returns the *Snapshot that serves every read: the topology
	// itself, or an Overlay's patched view. Hot loops call it once and
	// read through the concrete type.
	View() *Snapshot
	// Syms returns the symbol table labels, attribute names and values are
	// interned in. Patterns are compiled against it (pattern.Compile)
	// and X → Y literals lower onto it (core.LiteralProgram).
	Syms() *Symbols
	// NumNodes returns |V| as seen by this view.
	NumNodes() int
	// Label returns the interned label code of node v.
	Label(v NodeID) Sym
	// AttrSym returns the interned value of attribute name on node v, or
	// (NoSym, false) when the node does not carry it. This is the
	// core.AttrSource contract, so literal programs evaluate directly
	// against any Topology.
	AttrSym(v NodeID, name Sym) (Sym, bool)
	// Out returns v's out-adjacency sorted by (Label, Label(To), To).
	// Shared; read-only.
	Out(v NodeID) []CSREdge
	// In returns v's in-adjacency (CSREdge.To is the edge source), sorted
	// by (Label, Label(To), To). Shared; read-only.
	In(v NodeID) []CSREdge
	// OutDegree returns the number of out-edges of v.
	OutDegree(v NodeID) int
	// InDegree returns the number of in-edges of v.
	InDegree(v NodeID) int
	// OutWith returns the contiguous subrange of v's out-adjacency carrying
	// edge label l; the whole range for WildcardSym. It is To-sorted only
	// within each neighbour label's run.
	OutWith(v NodeID, l Sym) []CSREdge
	// InWith is OutWith over the in-adjacency.
	InWith(v NodeID, l Sym) []CSREdge
	// HasEdge reports whether a from -[l]-> to edge exists; l == WildcardSym
	// matches any label.
	HasEdge(from, to NodeID, l Sym) bool
	// NodesWith returns the candidate class of label code l: all nodes
	// carrying it, ascending. Shared; read-only.
	NodesWith(l Sym) []NodeID
	// ClassSize returns the number of nodes carrying label code l.
	ClassSize(l Sym) int
	// Neighborhood returns the nodes within c undirected hops of start,
	// including start, sorted ascending.
	Neighborhood(start NodeID, c int) []NodeID
	// NeighborhoodSize returns |V'| + |E'| of the subgraph induced by the
	// c-hop neighborhood of start — the |G_z̄| block-size measure.
	NeighborhoodSize(start NodeID, c int) int
	// BlockInto adds to set every node within c undirected hops of start
	// (including start) — the allocation-free block fill engines use.
	BlockInto(set *EpochSet, start NodeID, c int)
}

// Compile-time interface checks: a Snapshot, and an Overlay through its
// embedded view, implement the full Topology contract.
var (
	_ Topology = (*Snapshot)(nil)
	_ Topology = (*Overlay)(nil)
)
