package match

import (
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// TestBitsetsGrowGeometrically: a reused matcher over an overlay that gains
// one node per batch reallocates its used-set and semi-join bitset O(log)
// times, not once per 64 nodes, and, with its plan cached in a shared cache
// (whose key carries no version), plans once. The bound is the growth
// steps of an eighth each from the base's word count to the final |V|; one
// reallocation per 64 nodes is 3.
func TestBitsetsGrowGeometrically(t *testing.T) {
	const base, batches = 1000, 200
	g := graph.New(base, 0)
	for i := range base {
		g.AddNode("a", nil)
		if i > 0 {
			g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), "e")
		}
	}
	ov := graph.NewOverlay(g)
	syms := ov.Syms()
	ps := NewPlans(func(q *pattern.Pattern) *pattern.Compiled {
		pattern.InternInto(q, syms)
		return pattern.Compile(q, syms)
	})
	q := pattern.New()
	q.AddEdge(q.AddNode("x", "a"), q.AddNode("y", "a"), "e")
	m := ps.Get(ov.Snapshot)
	yield := func(core.Match) bool { return true }
	m.Enumerate(q, Options{}, yield) // plans and sizes the bitsets
	grown := 0
	for range batches {
		ov.AddNode("a", nil)
		used, bits := &m.used[0], &m.bits[0]
		m.Enumerate(q, Options{}, yield)
		if &m.used[0] != used || &m.bits[0] != bits {
			grown++
		}
		if w := (ov.NumNodes() + 63) / 64; len(m.used) < w || len(m.bits) < w {
			t.Fatalf("|V| = %d: bitsets of %d and %d words", ov.NumNodes(), len(m.used), len(m.bits))
		}
	}
	bound := 0
	for c := (base + 63) / 64 * 64; c < base+batches; c += c / 8 {
		bound++
	}
	if grown > bound {
		t.Fatalf("the bitsets grew %d times over %d one-node batches from |V| = %d, want at most %d (an eighth each)", grown, batches, base, bound)
	}
	if ps.Misses() != 1 {
		t.Fatalf("the shared cache missed %d times, want once: no batch re-plans", ps.Misses())
	}
}
