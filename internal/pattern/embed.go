package pattern

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
	return findEmbeddings(sub, host, -1)
}

// EmbeddableExact reports whether at least one exact embedding exists.
func EmbeddableExact(sub, host *Pattern) bool {
	_, ok := FirstEmbedding(sub, host)
	return ok
}

// FirstEmbedding returns the first exact embedding of sub into host that
// the search finds, if any.
func FirstEmbedding(sub, host *Pattern) (Embedding, bool) {
	found := findEmbeddings(sub, host, 1)
	if len(found) == 0 {
		return Embedding{}, false
	}
	return found[0], true
}

// findEmbeddings returns the embeddings of sub into host, at most limit of
// them (limit < 0: all).
func findEmbeddings(sub, host *Pattern, limit int) []Embedding {
	if sub.NumNodes() > host.NumNodes() || sub.NumEdges() > host.NumEdges() {
		return nil
	}
	e := &embedder{sub: sub, host: host, limit: limit}
	e.order = connectivityOrder(sub)
	e.assign = make([]int, sub.NumNodes())
	for i := range e.assign {
		e.assign[i] = -1
	}
	e.usedHost = make([]bool, host.NumNodes())
	e.search(0)
	return e.found
}

type embedder struct {
	sub, host *Pattern
	limit     int
	order     []int
	assign    []int // sub node -> host node or -1
	usedHost  []bool
	found     []Embedding
}

func (e *embedder) search(depth int) bool {
	if e.limit >= 0 && len(e.found) >= e.limit {
		return true
	}
	if depth == len(e.order) {
		e.found = append(e.found, Embedding{Map: append([]int(nil), e.assign...)})
		return e.limit >= 0 && len(e.found) >= e.limit
	}
	u := e.order[depth]
	for h := 0; h < e.host.NumNodes(); h++ {
		if e.usedHost[h] || !e.nodeCompatible(u, h) || !e.edgesCompatible(u, h) {
			continue
		}
		e.assign[u] = h
		e.usedHost[h] = true
		if e.search(depth + 1) {
			return true
		}
		e.usedHost[h] = false
		e.assign[u] = -1
	}
	return false
}

// nodeCompatible reports whether sub node u can map to host node h.
func (e *embedder) nodeCompatible(u, h int) bool {
	sl := e.sub.Nodes[u].Label
	return sl == Wildcard || sl == e.host.Nodes[h].Label
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
		if subLabel == Wildcard || subLabel == he.Label {
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
