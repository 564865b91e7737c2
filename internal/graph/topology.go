package graph

// Topology is anything that resolves to the compiled execution view of a
// graph: interned labels, adjacency sorted by (edge label, neighbor label,
// neighbor), contiguous per-label candidate classes, interned attribute
// lookup, and the BFS primitives the workload model is built on.
//
// There is one read type, *Snapshot: either frozen (built by Graph.Freeze
// or adopted from a .gfds image) or an Overlay's patched view (Patched),
// which shares a frozen base's arrays and consults the overlay's delta for
// what updates changed. Every engine, planner and literal program reads a
// *Snapshot; Topology survives only so an entry point such as
// match.NewMatcher can take an *Overlay as well, through its embedded view.
// The incremental detector and the session's post-update bundles therefore
// run on the same code as the batch engines, without re-freezing per
// update batch.
//
// Every view is safe for concurrent readers while it is not being
// mutated; mutating an Overlay (or the underlying Graph) concurrently with
// matching is not safe — the same contract Graph.Freeze always had.
type Topology interface {
	// View returns the *Snapshot that serves every read: the topology
	// itself, or an Overlay's patched view.
	View() *Snapshot
}

// Compile-time interface checks: a Snapshot, and an Overlay through its
// embedded view.
var (
	_ Topology = (*Snapshot)(nil)
	_ Topology = (*Overlay)(nil)
)
