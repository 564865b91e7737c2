// Package match implements graph pattern matching via subgraph isomorphism
// (Section 2 of the GFD paper): a match of pattern Q in graph G is a
// subgraph of G isomorphic to Q, i.e. an injective mapping h from pattern
// nodes to graph nodes preserving node labels (wildcard matches anything)
// and requiring, for every pattern edge (u,u'), an edge (h(u),h(u')) in G
// with a matching label.
//
// The enumerator is a backtracking search with label/degree candidate
// filtering and connectivity-driven variable ordering. It supports pinning
// pattern nodes to lists of graph nodes (Options.Pins: a work unit's pivot
// candidates), which by the locality of subgraph isomorphism (Section 5.2)
// keeps a unit's matches inside its data block without testing membership.
//
// Two execution paths produce the same match set:
//
//   - Enumerate walks the mutable *graph.Graph directly. This
//     is the portable reference path, kept as the differential-test oracle
//     and for ad-hoc callers (targeted noise injection).
//   - Matcher (matcher.go) runs against one read view, a
//     *graph.Snapshot (interned labels, CSR adjacency, zero
//     steady-state allocations): frozen for the batch engines, an
//     overlay's patched view for the incremental detector and post-update
//     sessions — the same search body either way. Build graphs, g.Freeze()
//     (or maintain an overlay), then match.
package match

import (
	"fmt"
	"slices"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Pin binds pattern node Node to each node of To in turn, in list order: a
// single-node pin is a one-element list.
type Pin struct {
	Node int
	To   []graph.NodeID
}

// Options configures an enumeration.
type Options struct {
	// Pins are bound first, in slice order, ahead of every other pattern
	// node: the search binds Pins[0].Node to each node of Pins[0].To in
	// turn, under each of them Pins[1].Node to each of Pins[1].To, and so
	// on, so the first pin is the outermost loop. Each listed node is
	// tested as any candidate is (label, degrees, edges to the nodes bound
	// before it, injectivity): a list that holds a node twice yields its
	// matches twice, and an empty list yields nothing. Pinning a pivot to
	// its candidates enumerates only the matches through them; by locality
	// those lie in the candidates' data blocks, so no block option exists.
	// Naming a pattern node twice, or a node outside the pattern, panics.
	Pins []Pin
	// Limit stops the enumeration after this many matches; 0 means
	// unlimited.
	Limit int
	// StripeNode, together with StripeMod/StripeRem, partitions the match
	// space for the replicate-and-split skew optimization: pattern node
	// StripeNode may only match graph nodes v with v mod StripeMod ==
	// StripeRem. StripeMod == 0 disables striping. Enumerating all
	// residues yields exactly the unstriped match set, since every match
	// assigns StripeNode exactly one graph node. The Matcher binds
	// StripeNode right after the pins.
	StripeNode int
	StripeMod  int
	StripeRem  int
	// NoIntersect disables the Matcher's multiway sorted-intersection
	// candidate step, forcing the classical iterate-smallest-and-probe
	// backtracking everywhere, on frozen and patched views alike. The match
	// set is identical either way; the flag exists for differential tests
	// and for benchmarking the worst-case-optimal step against
	// iterate-and-probe. Enumerate over a *graph.Graph ignores it (it has
	// no intersection step).
	NoIntersect bool
	// Halt is consulted at strided checkpoints inside candidate
	// enumeration; returning true abandons the search immediately, even
	// mid-class on a stretch that produces no matches (where a
	// yield-driven stop would never fire). The engines pass their
	// per-worker cancellation probe so early termination — a consumer
	// done pulling violations, a cancelled context, an expired unit
	// deadline — propagates into the backtracking itself. nil disables
	// the probe at zero cost.
	Halt func() bool
	// Guard pushes compiled X literals into the Matcher's search (literal
	// pushdown): each instruction runs right after the depth that binds
	// its last operand, and a prefix on which every guard member has a
	// failed X literal is abandoned there. The plan orders variables so
	// guards close early. Under a guard the Matcher yields only matches
	// some member's X holds on — Limit counts exactly those — and a dead
	// guard (no member's X can ever hold) yields nothing without
	// searching. Y never prunes: callers still run IsViolation on every
	// yielded match. nil searches unguarded. The Matcher evaluates
	// guards against its read view, so an overlay's attribute writes are
	// seen; Enumerate over a *graph.Graph ignores it (it evaluates no
	// compiled literals).
	Guard *core.Guard
}

// Enumerate calls yield for every match of q in g under opts, in a
// deterministic order. Enumeration stops early if yield returns false.
// The Match slice passed to yield is reused across calls; callers that
// retain it must copy it.
func Enumerate(g *graph.Graph, q *pattern.Pattern, opts Options, yield func(core.Match) bool) {
	if q.NumNodes() == 0 {
		return
	}
	checkPins(opts.Pins, q.NumNodes())
	s := &searcher{g: g, q: q, opts: opts, yield: yield}
	s.order = s.planOrder()
	s.assign = make(core.Match, q.NumNodes())
	for i := range s.assign {
		s.assign[i] = graph.Invalid
	}
	s.extend(0)
}

type searcher struct {
	g     *graph.Graph
	q     *pattern.Pattern
	opts  Options
	yield func(core.Match) bool

	order  []int
	assign core.Match
	found  int
	halt   bool
}

// checkPins panics unless every pin names a distinct node of an n-node
// pattern.
func checkPins(pins []Pin, n int) {
	for i, p := range pins {
		if p.Node < 0 || p.Node >= n {
			panic(fmt.Sprintf("match: pin %d names node %d of a %d-node pattern", i, p.Node, n))
		}
		for _, o := range pins[:i] {
			if o.Node == p.Node {
				panic(fmt.Sprintf("match: pattern node %d is pinned twice", p.Node))
			}
		}
	}
}

// planOrder produces a matching order: the pins first, in pin order, then
// remaining nodes of each component in BFS order from already-placed nodes,
// seeding new components by the node with the smallest candidate estimate.
func (s *searcher) planOrder() []int {
	n := s.q.NumNodes()
	placed := make([]bool, n)
	order := make([]int, 0, n)
	for _, p := range s.opts.Pins {
		placed[p.Node] = true
		order = append(order, p.Node)
	}
	adjacent := func(v int) []int {
		var out []int
		for _, ei := range s.q.OutEdges(v) {
			out = append(out, s.q.Edges[ei].To)
		}
		for _, ei := range s.q.InEdges(v) {
			out = append(out, s.q.Edges[ei].From)
		}
		return out
	}
	estimate := func(v int) int {
		l := s.q.Nodes[v].Label
		if l == pattern.Wildcard {
			return s.g.NumNodes()
		}
		return s.g.LabelCount(l)
	}
	for len(order) < n {
		// Grow from the frontier of placed nodes if possible.
		next := -1
		bestEst := int(^uint(0) >> 1)
		for _, p := range order {
			for _, w := range adjacent(p) {
				if !placed[w] && estimate(w) < bestEst {
					next, bestEst = w, estimate(w)
				}
			}
		}
		if next < 0 {
			// New component: seed with the most selective node.
			for v := 0; v < n; v++ {
				if !placed[v] && estimate(v) < bestEst {
					next, bestEst = v, estimate(v)
				}
			}
		}
		placed[next] = true
		order = append(order, next)
	}
	return order
}

func (s *searcher) extend(depth int) {
	if s.halt {
		return
	}
	if s.opts.Halt != nil && s.opts.Halt() {
		s.halt = true
		return
	}
	if depth == len(s.order) {
		s.found++
		if !s.yield(s.assign) {
			s.halt = true
		}
		if s.opts.Limit > 0 && s.found >= s.opts.Limit {
			s.halt = true
		}
		return
	}
	u := s.order[depth]
	for _, v := range s.candidates(depth, u) {
		if slices.Contains(s.assign, v) {
			continue // taken: matches are injective
		}
		if !s.feasible(u, v) {
			continue
		}
		s.assign[u] = v
		s.extend(depth + 1)
		s.assign[u] = graph.Invalid
		if s.halt {
			return
		}
	}
}

// candidates produces the candidate graph nodes for pattern node u, bound
// at depth, given the current partial assignment: the pin's list, or the
// neighbors of an already-matched adjacent pattern node, or the label
// index.
func (s *searcher) candidates(depth, u int) []graph.NodeID {
	if depth < len(s.opts.Pins) {
		return s.opts.Pins[depth].To
	}
	// Prefer expanding along a matched neighbor: candidates are then the
	// adjacency of the matched node, already label-filtered by feasible().
	for _, ei := range s.q.InEdges(u) {
		e := s.q.Edges[ei]
		if from := s.assign[e.From]; from != graph.Invalid {
			return neighbors(s.g.Out(from), e.Label)
		}
	}
	for _, ei := range s.q.OutEdges(u) {
		e := s.q.Edges[ei]
		if to := s.assign[e.To]; to != graph.Invalid {
			return neighbors(s.g.In(to), e.Label)
		}
	}
	// Fresh component: label index or all nodes for wildcard.
	l := s.q.Nodes[u].Label
	if l != pattern.Wildcard {
		return s.g.NodesWithLabel(l)
	}
	all := make([]graph.NodeID, s.g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	return all
}

// neighbors returns the endpoints of the half-edges whose label label
// admits. A wildcard admits a neighbour linked under several labels once
// per label; it is listed once.
func neighbors(hes []graph.HalfEdge, label string) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(hes))
	for _, he := range hes {
		if pattern.LabelMatches(label, he.Label) {
			out = append(out, he.To)
		}
	}
	if label == pattern.Wildcard {
		slices.Sort(out)
		out = slices.Compact(out)
	}
	return out
}

// feasible verifies that assigning v to pattern node u is consistent:
// striping, node label, degree bounds, and every pattern edge between u
// and an already-assigned node.
func (s *searcher) feasible(u int, v graph.NodeID) bool {
	if s.opts.StripeMod > 0 && u == s.opts.StripeNode && int(v)%s.opts.StripeMod != s.opts.StripeRem {
		return false
	}
	if !pattern.LabelMatches(s.q.Nodes[u].Label, s.g.Label(v)) {
		return false
	}
	if len(s.q.OutEdges(u)) > s.g.OutDegree(v) || len(s.q.InEdges(u)) > s.g.InDegree(v) {
		return false
	}
	for _, ei := range s.q.OutEdges(u) {
		e := s.q.Edges[ei]
		to := s.assign[e.To]
		if e.To == u {
			to = v // self-loop
		}
		if to == graph.Invalid {
			continue
		}
		if !s.hasEdge(v, to, e.Label) {
			return false
		}
	}
	for _, ei := range s.q.InEdges(u) {
		e := s.q.Edges[ei]
		if e.From == u {
			continue // self-loop handled above
		}
		from := s.assign[e.From]
		if from == graph.Invalid {
			continue
		}
		if !s.hasEdge(from, v, e.Label) {
			return false
		}
	}
	return true
}

func (s *searcher) hasEdge(from, to graph.NodeID, label string) bool {
	if label == pattern.Wildcard {
		return s.g.HasEdgeAnyLabel(from, to)
	}
	return s.g.HasEdge(from, to, label)
}
