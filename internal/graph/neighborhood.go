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
	sortNodeIDs(out)
	return out
}

// NodeSet is a set of node IDs with O(1) membership: a data block for
// simulation, a set of violating entities.
type NodeSet map[NodeID]struct{}

// NewNodeSet builds a NodeSet from ids.
func NewNodeSet(ids []NodeID) NodeSet {
	s := make(NodeSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Contains reports set membership. A nil NodeSet contains everything, so a
// nil block means "match anywhere in G".
func (s NodeSet) Contains(id NodeID) bool {
	if s == nil {
		return true
	}
	_, ok := s[id]
	return ok
}

// Add inserts id.
func (s NodeSet) Add(id NodeID) { s[id] = struct{}{} }

// AddAll inserts every id of ids.
func (s NodeSet) AddAll(ids []NodeID) {
	for _, id := range ids {
		s[id] = struct{}{}
	}
}

// Len returns the number of members; 0 for nil.
func (s NodeSet) Len() int { return len(s) }

// Sorted returns the members in ascending order.
func (s NodeSet) Sorted() []NodeID {
	out := make([]NodeID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	sortNodeIDs(out)
	return out
}

func sortNodeIDs(ids []NodeID) { slices.Sort(ids) }
