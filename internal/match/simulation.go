package match

import (
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Simulate computes the (dual) graph simulation relation from pattern q,
// lowered as cq, to the snapshot s (frozen or an overlay's patched view)
// restricted to the node set block (nil = whole graph): for each pattern
// node u it returns
// the set of graph nodes v that simulate u, i.e. v's label matches u's and
// every pattern edge incident to u can be followed from v into the
// simulation sets of u's neighbors. Labels are compared as interned codes,
// so a store-adopted graph is read from its flat arrays.
//
// Simulation over-approximates subgraph isomorphism (every node that
// participates in an isomorphic match simulates its pattern node) and is
// computable in polynomial time; disVal uses it to estimate the number of
// partial matches before deciding whether to ship partial matches or
// prefetch data blocks (Section 6.2). cq is the pattern lowered onto s's
// symbol table; the caller lowers it once and reuses it across blocks.
func Simulate(s *graph.Snapshot, cq *pattern.Compiled, block graph.NodeSet) []graph.NodeSet {
	n := cq.Q.NumNodes()
	sim := make([]graph.NodeSet, n)
	for u := 0; u < n; u++ {
		sim[u] = make(graph.NodeSet)
		if l := cq.NodeSyms[u]; l == graph.WildcardSym {
			if block == nil {
				for v := 0; v < s.NumNodes(); v++ {
					sim[u].Add(graph.NodeID(v))
				}
			} else {
				for v := range block {
					sim[u].Add(v)
				}
			}
		} else {
			for _, v := range s.NodesWith(l) {
				if block.Contains(v) {
					sim[u].Add(v)
				}
			}
		}
	}
	// Iterate to fixpoint: drop v from sim(u) when some pattern edge at u
	// has no counterpart from v into the current simulation sets.
	changed := true
	for changed {
		changed = false
		for u := 0; u < n; u++ {
			for v := range sim[u] {
				if !simFeasible(s, cq, sim, u, v, block) {
					delete(sim[u], v)
					changed = true
				}
			}
		}
	}
	return sim
}

// simFeasible reads, per pattern edge at u, only the adjacency run whose
// neighbours carry the other end's label: no node outside it can be in
// that end's simulation set.
func simFeasible(s *graph.Snapshot, cq *pattern.Compiled, sim []graph.NodeSet, u int, v graph.NodeID, block graph.NodeSet) bool {
	for _, ei := range cq.Q.OutEdges(u) {
		e := cq.Edges[ei]
		if !hasSimSuccessor(s.OutWithNbr(v, e.Label, cq.NodeSyms[e.To]), sim[e.To], block) {
			return false
		}
	}
	for _, ei := range cq.Q.InEdges(u) {
		e := cq.Edges[ei]
		if !hasSimSuccessor(s.InWithNbr(v, e.Label, cq.NodeSyms[e.From]), sim[e.From], block) {
			return false
		}
	}
	return true
}

func hasSimSuccessor(adj []graph.CSREdge, target graph.NodeSet, block graph.NodeSet) bool {
	for _, e := range adj {
		if block.Contains(e.To) && target.Contains(e.To) {
			return true
		}
	}
	return false
}
