package match

import (
	"runtime"
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
	ps := NewPlans(ov.Syms(), true)
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

// TestPlanMissesCostFlat: a plan miss costs the same heap bytes however
// many plans the cache already holds. It makes 2K distinct plans on one
// fresh Plans and compares the bytes the second K misses allocate with the
// first K's. A cache that copies its map on every miss pays O(plans) per
// miss, about three times as much in the second half.
func TestPlanMissesCostFlat(t *testing.T) {
	const k = 512
	g := graph.New(4, 0)
	for i := range 4 {
		g.AddNode("a", nil)
		if i > 0 {
			g.MustAddEdge(graph.NodeID(i-1), graph.NodeID(i), "e")
		}
	}
	snap := g.Freeze()
	ps := NewPlans(snap.Syms(), false)
	qs := make([]*pattern.Pattern, 2*k+1)
	for i := range qs {
		q := pattern.New()
		q.AddEdge(q.AddNode("x", "a"), q.AddNode("y", "a"), "e")
		qs[i] = q
	}
	m := ps.Get(snap)
	yield := func(core.Match) bool { return true }
	m.Enumerate(qs[2*k], Options{}, yield) // sizes the matcher's scratch
	var ms runtime.MemStats
	half := func(qs []*pattern.Pattern) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for _, q := range qs {
			m.Enumerate(q, Options{}, yield)
		}
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc - before
	}
	first, second := half(qs[:k]), half(qs[k:2*k])
	if ps.Misses() != 2*k+1 {
		t.Fatalf("%d misses, want %d", ps.Misses(), 2*k+1)
	}
	if float64(second) > 1.5*float64(first) {
		t.Fatalf("misses %d–%d allocated %d B, misses 1–%d %d B (%.2f×): a miss must not pay for the plans already made", k+1, 2*k, second, k, first, float64(second)/float64(first))
	}
}
