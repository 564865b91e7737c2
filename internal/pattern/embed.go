package pattern

import "slices"

// Embedding is an isomorphic mapping f from a pattern Q' into a subgraph of
// a host pattern Q (Section 4.1 of the paper: "Q' is embeddable in Q").
// Map[i] is the host node index that sub node i maps to.
//
// Labels are handled so that an embedded GFD remains enforceable on every
// match of the host: a wildcard sub label maps onto any host label (the sub
// GFD applies to arbitrary entities, hence to every instantiation of the
// host node), and a concrete sub label maps only onto an equal host label —
// never onto a wildcard host label, which some matches would not carry.
type Embedding struct {
	Map []int
}

// Embeddings returns all exact embeddings of sub into host.
func Embeddings(sub, host *Pattern) []Embedding {
	var found []Embedding
	embed(sub, host, false, func(m []int) bool {
		found = append(found, Embedding{Map: slices.Clone(m)})
		return false
	})
	return found
}

// Isomorphism returns the first label-exact isomorphism from a onto b that
// accept admits (nil admits every one): perm[i] is the node of b that a's
// node i maps to, and every node and edge of a carries exactly the label
// of its image. The search is lazy and runs in embedding order — a's nodes
// in connectivityOrder, b's nodes ascending for each — so it stops at the
// first admitted isomorphism of that order.
func Isomorphism(a, b *Pattern, accept func(perm []int) bool) ([]int, bool) {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return nil, false
	}
	if accept == nil {
		accept = acceptAll
	}
	perm := embed(a, b, true, accept)
	return perm, perm != nil
}

func acceptAll([]int) bool { return true }

// embed runs the embedding search of sub into host, calling visit on each
// embedding found until visit returns true, and returns that embedding (nil
// when visit admits none; the map visit sees is reused until then). A
// labelExact search maps every node and edge onto one of the same label,
// wildcards included.
func embed(sub, host *Pattern, labelExact bool, visit func(m []int) bool) []int {
	if sub.NumNodes() > host.NumNodes() || sub.NumEdges() > host.NumEdges() {
		return nil
	}
	e := &embedder{sub: sub, host: host, labelExact: labelExact}
	e.order = connectivityOrder(sub)
	e.assign = make([]int, sub.NumNodes())
	for i := range e.assign {
		e.assign[i] = -1
	}
	e.usedHost = make([]bool, host.NumNodes())
	if !e.search(0, visit) {
		return nil
	}
	return e.assign
}

type embedder struct {
	sub, host  *Pattern
	labelExact bool
	order      []int
	assign     []int // sub node -> host node or -1
	usedHost   []bool
}

func (e *embedder) search(depth int, visit func(m []int) bool) bool {
	if depth == len(e.order) {
		return visit(e.assign)
	}
	u := e.order[depth]
	for h := 0; h < e.host.NumNodes(); h++ {
		if e.usedHost[h] || !e.nodeCompatible(u, h) || !e.edgesCompatible(u, h) {
			continue
		}
		e.assign[u] = h
		e.usedHost[h] = true
		if e.search(depth+1, visit) {
			return true
		}
		e.usedHost[h] = false
		e.assign[u] = -1
	}
	return false
}

// nodeCompatible reports whether sub node u can map to host node h.
func (e *embedder) nodeCompatible(u, h int) bool {
	return e.labelFits(e.sub.Nodes[u].Label, e.host.Nodes[h].Label)
}

// labelFits reports whether a sub label may map onto a host label: an equal
// one, or any one for a wildcard unless the search is labelExact.
func (e *embedder) labelFits(sub, host string) bool {
	return sub == host || sub == Wildcard && !e.labelExact
}

// edgesCompatible verifies all sub edges between u and already-assigned
// nodes have counterparts in the host with compatible labels.
func (e *embedder) edgesCompatible(u, h int) bool {
	for _, ei := range e.sub.OutEdges(u) {
		se := e.sub.Edges[ei]
		if hv := e.assign[se.To]; hv >= 0 && !e.hostHasEdge(h, hv, se.Label) {
			return false
		}
	}
	for _, ei := range e.sub.InEdges(u) {
		se := e.sub.Edges[ei]
		if hv := e.assign[se.From]; hv >= 0 && !e.hostHasEdge(hv, h, se.Label) {
			return false
		}
	}
	// Self-loops.
	for _, ei := range e.sub.OutEdges(u) {
		if se := e.sub.Edges[ei]; se.To == u && !e.hostHasEdge(h, h, se.Label) {
			return false
		}
	}
	return true
}

func (e *embedder) hostHasEdge(from, to int, subLabel string) bool {
	for _, ei := range e.host.OutEdges(from) {
		he := e.host.Edges[ei]
		if he.To != to {
			continue
		}
		if e.labelFits(subLabel, he.Label) {
			return true
		}
	}
	return false
}

// connectivityOrder orders sub nodes so that each node after the first in
// its component is adjacent to an earlier one, maximizing early pruning.
func connectivityOrder(p *Pattern) []int {
	n := p.NumNodes()
	order := make([]int, 0, n)
	placed := make([]bool, n)
	adj := func(v int) []int {
		var out []int
		for _, ei := range p.OutEdges(v) {
			out = append(out, p.Edges[ei].To)
		}
		for _, ei := range p.InEdges(v) {
			out = append(out, p.Edges[ei].From)
		}
		return out
	}
	for len(order) < n {
		// Seed with the unplaced node of maximum degree.
		seed, best := -1, -1
		for v := 0; v < n; v++ {
			if !placed[v] && p.Degree(v) > best {
				seed, best = v, p.Degree(v)
			}
		}
		queue := []int{seed}
		placed[seed] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, w := range adj(v) {
				if !placed[w] {
					placed[w] = true
					queue = append(queue, w)
				}
			}
		}
	}
	return order
}
