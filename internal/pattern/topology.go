package pattern

// Components returns the maximal connected components of p (edges treated
// as undirected), each as a sorted slice of node indices, ordered by their
// smallest member. Patterns in GFDs typically have 1 or 2 components
// (Section 5.2 of the paper).
func (p *Pattern) Components() [][]int {
	n := len(p.Nodes)
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		id := len(comps)
		stack := []int{start}
		comp[start] = id
		var members []int
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			members = append(members, v)
			for _, ei := range p.out[v] {
				if w := p.Edges[ei].To; comp[w] < 0 {
					comp[w] = id
					stack = append(stack, w)
				}
			}
			for _, ei := range p.in[v] {
				if w := p.Edges[ei].From; comp[w] < 0 {
					comp[w] = id
					stack = append(stack, w)
				}
			}
		}
		sortInts(members)
		comps = append(comps, members)
	}
	return comps
}

// Eccentricity returns the longest undirected shortest-path distance from
// node v to any node reachable from it (its component). This is the radius
// c_Q of the component when v is its center.
func (p *Pattern) Eccentricity(v int) int {
	dist := map[int]int{v: 0}
	frontier := []int{v}
	max := 0
	for d := 1; len(frontier) > 0; d++ {
		var next []int
		for _, u := range frontier {
			for _, ei := range p.out[u] {
				if w := p.Edges[ei].To; !contains(dist, w) {
					dist[w] = d
					next = append(next, w)
					max = d
				}
			}
			for _, ei := range p.in[u] {
				if w := p.Edges[ei].From; !contains(dist, w) {
					dist[w] = d
					next = append(next, w)
					max = d
				}
			}
		}
		frontier = next
	}
	return max
}

// Center returns, for the component whose members are given, the member with
// minimum eccentricity and that minimum eccentricity: the pivot selection
// rule of Section 5.2. Among members of equal eccentricity a labelled node
// beats a wildcard — a wildcard's candidates are every node of the graph —
// and then the smallest index wins.
func (p *Pattern) Center(members []int) (node, radius int) {
	node, radius = -1, int(^uint(0)>>1)
	for _, v := range members {
		ecc := p.Eccentricity(v)
		if ecc < radius || ecc == radius && p.Nodes[node].Label == Wildcard && p.Nodes[v].Label != Wildcard {
			node, radius = v, ecc
		}
	}
	return node, radius
}

func contains(m map[int]int, k int) bool { _, ok := m[k]; return ok }

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// Induced returns the sub-pattern of q induced by nodes: their variables
// and labels, in the order given, and every edge of q between two of them,
// in q's order.
func Induced(q *Pattern, nodes []int) *Pattern {
	idx := make([]int, q.NumNodes())
	for i := range idx {
		idx[i] = -1
	}
	sub := New()
	for _, v := range nodes {
		idx[v] = sub.AddNode(q.Nodes[v].Var, q.Nodes[v].Label)
	}
	for _, e := range q.Edges {
		if from, to := idx[e.From], idx[e.To]; from >= 0 && to >= 0 {
			sub.AddEdge(from, to, e.Label)
		}
	}
	return sub
}
