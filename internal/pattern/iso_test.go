package pattern

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestIsomorphismMatchesPermutationOracle holds Isomorphism to a brute
// force over every permutation of b's nodes, on random pairs of at most six
// nodes with wildcard node and edge labels, self-loops and two edges
// between one pair under distinct labels: an isomorphism is found iff some
// permutation is a label-exact isomorphism that accept admits, and the one
// returned is one. Half the pairs relabel a shuffled copy of a, so that
// most of those have an isomorphism.
func TestIsomorphismMatchesPermutationOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	found := 0
	for trial := range 3000 {
		a := randomPattern(rng)
		var b *Pattern
		if trial%2 == 0 {
			b = shuffled(rng, a)
		} else {
			b = randomPattern(rng)
		}
		var accept func([]int) bool
		if k := rng.Intn(3); k > 0 && a.NumNodes() > 0 {
			to := rng.Intn(a.NumNodes())
			accept = func(perm []int) bool { return perm[0] != to }
		}
		name := fmt.Sprintf("trial %d: %s onto %s", trial, a, b)
		perm, ok := Isomorphism(a, b, accept)
		want := false
		eachPerm(b.NumNodes(), func(p []int) bool {
			want = a.NumNodes() == b.NumNodes() && labelExactIso(a, b, p) && (accept == nil || accept(p))
			return want
		})
		if ok != want {
			t.Fatalf("%s: found %v, the permutation oracle %v", name, ok, want)
		}
		if ok {
			found++
			if !labelExactIso(a, b, perm) || accept != nil && !accept(perm) {
				t.Fatalf("%s: returned %v, not an admitted label-exact isomorphism", name, perm)
			}
		}
	}
	if found < 500 {
		t.Fatalf("only %d of 3000 pairs have an isomorphism", found)
	}
}

// randomPattern draws at most six nodes labelled a, b or the wildcard, and
// up to eight edges labelled e, f or the wildcard, self-loops allowed; an
// edge repeats a node pair only under a label the pair does not carry yet.
func randomPattern(rng *rand.Rand) *Pattern {
	labels := []string{"a", "b", Wildcard}
	p := New()
	n := rng.Intn(7)
	for i := range n {
		p.AddNode(Var(fmt.Sprint("v", i)), labels[rng.Intn(len(labels))])
	}
	for range rng.Intn(9) {
		if n == 0 {
			break
		}
		from, to, label := rng.Intn(n), rng.Intn(n), []string{"e", "f", Wildcard}[rng.Intn(3)]
		if !slices.Contains(p.Edges, Edge{from, to, label}) {
			p.AddEdge(from, to, label)
		}
	}
	return p
}

// shuffled returns a copy of p with its nodes renumbered at random, its
// edges in random order and, one time in four, one node relabelled.
func shuffled(rng *rand.Rand, p *Pattern) *Pattern {
	n := p.NumNodes()
	perm := rng.Perm(n)
	inv := make([]int, n)
	for i, v := range perm {
		inv[v] = i
	}
	q := New()
	for v := range n {
		q.AddNode(Var(fmt.Sprint("w", v)), p.Nodes[inv[v]].Label)
	}
	if n > 0 && rng.Intn(4) == 0 {
		q.Nodes[rng.Intn(n)].Label = []string{"a", "b", Wildcard}[rng.Intn(3)]
	}
	for _, ei := range rng.Perm(p.NumEdges()) {
		e := p.Edges[ei]
		q.AddEdge(perm[e.From], perm[e.To], e.Label)
	}
	return q
}

// labelExactIso reports whether perm maps a onto b with every node and
// edge label equal to its image's: same counts, and each edge of a has an
// edge of b between the images under its label.
func labelExactIso(a, b *Pattern, perm []int) bool {
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		return false
	}
	for i, v := range perm {
		if a.Nodes[i].Label != b.Nodes[v].Label {
			return false
		}
	}
	for _, e := range a.Edges {
		if !slices.Contains(b.Edges, Edge{perm[e.From], perm[e.To], e.Label}) {
			return false
		}
	}
	return true
}

// eachPerm calls fn on every permutation of 0..n-1 until it returns true.
func eachPerm(n int, fn func([]int) bool) {
	p := make([]int, n)
	used := make([]bool, n)
	var walk func(d int) bool
	walk = func(d int) bool {
		if d == n {
			return fn(p)
		}
		for v := range n {
			if !used[v] {
				used[v], p[d] = true, v
				if walk(d + 1) {
					return true
				}
				used[v] = false
			}
		}
		return false
	}
	walk(0)
}
