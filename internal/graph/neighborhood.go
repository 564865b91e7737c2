package graph

// Neighborhood computes the set of nodes within c hops of start, treating
// edges as undirected (the paper's data blocks G_z̄ contain the c-neighbors
// of a pivot candidate; subgraph-isomorphism locality is undirected because
// pattern edges may point either way). The result includes start itself and
// is sorted by NodeID; an absent start has none. It reads the graph's
// snapshot: the sealed view, or a building graph's Freeze.
//
// c == 0 returns just {start}.
func (g *Graph) Neighborhood(start NodeID, c int) []NodeID {
	if s := g.sealed.Load(); s != nil {
		return s.Neighborhood(start, c)
	}
	return g.Freeze().Neighborhood(start, c)
}
