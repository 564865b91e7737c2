package match

import (
	"slices"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Simulate computes the (dual) graph simulation relation from pattern q,
// lowered as cq, to the snapshot s (frozen or an overlay's patched view)
// restricted to the node set block (nil = the whole view): for each
// pattern node u it returns the ascending graph nodes v that simulate u,
// i.e. v's label matches u's and every pattern edge incident to u can be
// followed from v into the simulation sets of u's neighbors. Labels are
// compared as interned codes, so a store-adopted graph is read from its
// flat arrays.
//
// Simulation over-approximates subgraph isomorphism (every node that
// participates in an isomorphic match simulates its pattern node) and is
// computable in polynomial time; disVal uses it to estimate the number of
// partial matches before deciding whether to ship partial matches or
// prefetch data blocks (Section 6.2). cq is the pattern lowered onto s's
// symbol table; the caller lowers it once and reuses it across blocks.
//
// Each round filters every set in place, keeping the nodes that still have
// a successor in the current sets; membership is a binary search. The
// greatest simulation is unique, so the order of removals does not matter.
func Simulate(s *graph.Snapshot, cq *pattern.Compiled, block *graph.EpochSet) [][]graph.NodeID {
	sim := make([][]graph.NodeID, cq.Q.NumNodes())
	for u := range sim {
		switch l := cq.NodeSyms[u]; {
		case l != graph.WildcardSym:
			for _, v := range s.NodesWith(l) {
				if block == nil || block.Contains(v) {
					sim[u] = append(sim[u], v)
				}
			}
		case block == nil:
			sim[u] = make([]graph.NodeID, s.NumNodes())
			for v := range sim[u] {
				sim[u][v] = graph.NodeID(v)
			}
		default:
			sim[u] = slices.Sorted(slices.Values(block.Members()))
		}
	}
	// Every set lies inside the block, so a successor found in a set is in
	// the block too. The feasibility of a whole set is decided before it is
	// compacted: a pattern self-loop reads the set being filtered.
	var keep []bool
	for changed := true; changed; {
		changed = false
		for u, vs := range sim {
			keep = keep[:0]
			for _, v := range vs {
				keep = append(keep, simFeasible(s, cq, sim, u, v))
			}
			kept := vs[:0]
			for i, v := range vs {
				if keep[i] {
					kept = append(kept, v)
				}
			}
			changed = changed || len(kept) < len(vs)
			sim[u] = kept
		}
	}
	return sim
}

// simFeasible reads, per pattern edge at u, only the adjacency run whose
// neighbours carry the other end's label: no node outside it can be in
// that end's simulation set.
func simFeasible(s *graph.Snapshot, cq *pattern.Compiled, sim [][]graph.NodeID, u int, v graph.NodeID) bool {
	for _, ei := range cq.Q.OutEdges(u) {
		e := cq.Edges[ei]
		if !hasSimSuccessor(s.OutWithNbr(v, e.Label, cq.NodeSyms[e.To]), sim[e.To]) {
			return false
		}
	}
	for _, ei := range cq.Q.InEdges(u) {
		e := cq.Edges[ei]
		if !hasSimSuccessor(s.InWithNbr(v, e.Label, cq.NodeSyms[e.From]), sim[e.From]) {
			return false
		}
	}
	return true
}

func hasSimSuccessor(adj []graph.CSREdge, target []graph.NodeID) bool {
	for _, e := range adj {
		if _, ok := slices.BinarySearch(target, e.To); ok {
			return true
		}
	}
	return false
}
