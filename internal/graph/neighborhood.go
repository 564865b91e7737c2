package graph

import "slices"

// Neighborhood computes the set of nodes within c hops of start, treating
// edges as undirected (the paper's data blocks G_z̄ contain the c-neighbors
// of a pivot candidate; subgraph-isomorphism locality is undirected because
// pattern edges may point either way). The result includes start itself and
// is sorted by NodeID.
//
// c == 0 returns just {start}.
func (g *Graph) Neighborhood(start NodeID, c int) []NodeID {
	if s := g.sealed.Load(); s != nil {
		return s.Neighborhood(start, c)
	}
	if !g.Has(start) {
		return nil
	}
	visited := map[NodeID]struct{}{start: {}}
	frontier := []NodeID{start}
	for hop := 0; hop < c && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, v := range frontier {
			for _, he := range g.out[v] {
				if _, seen := visited[he.To]; !seen {
					visited[he.To] = struct{}{}
					next = append(next, he.To)
				}
			}
			for _, he := range g.in[v] {
				if _, seen := visited[he.To]; !seen {
					visited[he.To] = struct{}{}
					next = append(next, he.To)
				}
			}
		}
		frontier = next
	}
	out := make([]NodeID, 0, len(visited))
	for v := range visited {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}
