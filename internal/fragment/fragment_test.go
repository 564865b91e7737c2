package fragment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"gfd/internal/gen"
	"gfd/internal/graph"
)

func chainGraph(n int) *graph.Graph {
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddNode("n", graph.Attrs{"val": "v"})
	}
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID(i+1), "e")
	}
	return g
}

// TestPartitionCoversAllNodes: every node has one owner, the one the pure
// Owner formula gives, and every fragment owns some node. A range split of
// a chain cuts one edge per fragment boundary.
func TestPartitionCoversAllNodes(t *testing.T) {
	g := chainGraph(100)
	for _, strat := range []Strategy{Hash, Range} {
		f := Partition(g, 4, strat)
		if len(f.Owner) != 100 {
			t.Fatalf("strategy %v: partition covers %d of 100 nodes", strat, len(f.Owner))
		}
		sizes := make([]int, 4)
		for v := range graph.NodeID(100) {
			o := f.OwnerOf(v)
			if o != Owner(strat, v, 100, 4) || o != f.Owner[v] {
				t.Fatalf("strategy %v: node %d owned by %d, Owner says %d", strat, v, o, Owner(strat, v, 100, 4))
			}
			sizes[o]++
		}
		if slices.Contains(sizes, 0) {
			t.Errorf("strategy %v: fragment sizes %v", strat, sizes)
		}
	}
	if cut := Partition(g, 4, Range).CutEdges(); cut != 3 {
		t.Errorf("range split of a chain cuts %d edges, want 3", cut)
	}
}

func TestPartitionSingleFragment(t *testing.T) {
	g := chainGraph(10)
	f := Partition(g, 1, Hash)
	if f.CutEdges() != 0 {
		t.Error("single fragment has no cut edges")
	}
	// n < 1 clamps to 1.
	if Partition(g, 0, Hash).N != 1 {
		t.Error("n must clamp to 1")
	}
}

func TestNodeBytesGrowsWithContent(t *testing.T) {
	g := graph.New(0, 0)
	small := g.AddNode("x", nil)
	big := g.AddNode("some_long_label", graph.Attrs{"k1": "value1", "k2": "value2"})
	g.MustAddEdge(big, small, "e")
	if s := g.Freeze(); NodeBytes(s, big) <= NodeBytes(s, small) {
		t.Error("bigger nodes must serialize bigger")
	}
}

func TestHashPartitionRoughBalance(t *testing.T) {
	g := gen.Synthetic(gen.SyntheticConfig{Nodes: 2000, Edges: 4000, Seed: 7})
	f := Partition(g, 4, Hash)
	sizes := make([]int, 4)
	for _, o := range f.Owner {
		sizes[o]++
	}
	for i, n := range sizes {
		if n < 300 || n > 700 {
			t.Errorf("fragment %d owns %d nodes; hash balance off", i, n)
		}
	}
}

// TestPartitionKeepsAdoptedGraphHollow: partitioning a store-adopted graph
// reads its flat snapshot and never copies it onto the heap (copying
// allocates per node, so the allocation count across one Partition stays
// below |V|), and every value it computes equals the heap graph's.
func TestPartitionKeepsAdoptedGraphHollow(t *testing.T) {
	const n = 10000
	heap := graph.New(n, n)
	for i := 0; i < n; i++ {
		heap.AddNode([]string{"a", "b", "c"}[i%3], graph.Attrs{"val": fmt.Sprint(i % 97), "k": "v"})
	}
	for i := 0; i < n; i++ {
		heap.MustAddEdge(graph.NodeID(i), graph.NodeID((i*7+1)%n), "e")
	}
	flat, err := heap.Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := graph.AdoptFlat(flat)
	if err != nil {
		t.Fatal(err)
	}
	adopted := snap.Graph()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := Partition(adopted, 4, Hash)
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs >= n {
		t.Errorf("Partition of an adopted %d-node graph allocated %d times: it copied the graph", n, allocs)
	}

	want := Partition(heap, 4, Hash)
	if !slices.Equal(got.Owner, want.Owner) {
		t.Error("owners differ between the adopted and the heap graph")
	}
	if got.CutEdges() != want.CutEdges() {
		t.Errorf("cut edges %d, heap graph %d", got.CutEdges(), want.CutEdges())
	}
}

// TestPartitionSnapshotOverlayView: cutting an overlay's patched view sees
// the nodes and edges its updates inserted, builds no snapshot, and agrees
// with partitioning a fresh freeze of the mutated graph. Persisting shards
// of a patched view is refused.
func TestPartitionSnapshotOverlayView(t *testing.T) {
	g := chainGraph(10)
	g.Freeze()
	ov := graph.NewOverlay(g)
	v := ov.AddNode("n", graph.Attrs{"val": "v"})
	ov.MustAddEdge(0, v, "e")
	builds := g.SnapshotBuilds()

	got := PartitionSnapshot(ov.View(), 2, Range)
	if g.SnapshotBuilds() != builds {
		t.Fatal("partitioning the patched view froze the graph")
	}
	want := PartitionSnapshot(g.Clone().Freeze(), 2, Range)
	if !slices.Equal(got.Owner, want.Owner) || got.CutEdges() != want.CutEdges() {
		t.Errorf("view partition: owners %v cut %d, fresh freeze %v cut %d", got.Owner, got.CutEdges(), want.Owner, want.CutEdges())
	}
	if _, err := got.SaveShards(context.Background(), t.TempDir(), "p"); !errors.Is(err, graph.ErrPatchedView) {
		t.Errorf("SaveShards of a patched view: err = %v, want ErrPatchedView", err)
	}
}
