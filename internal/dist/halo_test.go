package dist

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"gfd/internal/graph"
	"gfd/internal/store"
)

// TestApplyHaloKeepsShardHollow: a worker patches each unit's halo into
// the overlay over its mapped shard, and the cost must be the halo's.
// Copying the shard onto the heap allocates per node, so applyHalo over
// an n-node adopted shard must stay far below n allocations, and the
// graph must read the patched halo back (the overlay is its read source).
// Re-shipping the same halo is idempotent.
func TestApplyHaloKeepsShardHollow(t *testing.T) {
	const n = 10000
	g := graph.New(n, n)
	for i := 0; i < n; i++ {
		g.AddNode([]string{"a", "b"}[i%2], graph.Attrs{"val": fmt.Sprint(i % 97)})
	}
	for i := 0; i < n; i++ {
		g.MustAddEdge(graph.NodeID(i), graph.NodeID((i*7+1)%n), "e")
	}
	path := filepath.Join(t.TempDir(), "shard.gfds")
	if err := store.Save(context.Background(), g.Freeze(), path); err != nil {
		t.Fatal(err)
	}
	l, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	shard := l.Snapshot().Graph()
	ov := graph.NewOverlay(shard)

	var halo []haloNode
	for i := 0; i < 16; i++ {
		id := graph.NodeID(i * 613)
		halo = append(halo, haloNode{
			id:    id,
			attrs: [][2]string{{"val", "halo"}, {"extra", fmt.Sprint(i)}},
			out:   []haloEdge{{to: graph.NodeID((int(id)*7 + 1) % n), label: "e"}, {to: id + 1, label: "f"}},
			in:    []haloEdge{{to: id + 2, label: "f"}},
		})
	}
	edges := shard.NumEdges()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = applyHalo(ov, halo)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := after.Mallocs - before.Mallocs; allocs > uint64(32*len(halo)) {
		t.Errorf("applyHalo of %d halo nodes over a %d-node shard allocated %d times: it copied the shard", len(halo), n, allocs)
	}
	// One existing edge per halo node was skipped; the other two landed.
	if got, want := shard.NumEdges(), edges+2*len(halo); got != want {
		t.Fatalf("shard reads %d edges after the halo, want %d", got, want)
	}
	if err := applyHalo(ov, halo); err != nil {
		t.Fatal(err)
	}
	if got, want := shard.NumEdges(), edges+2*len(halo); got != want {
		t.Fatalf("re-shipped halo changed the edge count to %d, want %d", got, want)
	}
	for _, h := range halo {
		if v, _ := shard.Attr(h.id, "val"); v != "halo" {
			t.Fatalf("shard reads val=%q on halo node %d, want halo", v, h.id)
		}
	}
}

// TestApplyHaloKeepsUnderscoreEdge: "_" is the pattern wildcard, but on a
// graph's edge it is a label of its own. A halo u -x-> a, u -_-> a must
// leave both edges in the worker's view, as in the full graph; testing
// presence under "any label" would skip the "_" edge once the "x" one
// landed, and a degree bound would then prune matches the other engines
// report. Re-shipping the halo adds neither edge again.
func TestApplyHaloKeepsUnderscoreEdge(t *testing.T) {
	g := graph.New(3, 0)
	u, a := g.AddNode("p", nil), g.AddNode("q", nil)
	g.AddNode("q", nil)
	path := filepath.Join(t.TempDir(), "shard.gfds")
	if err := store.Save(context.Background(), g.Freeze(), path); err != nil {
		t.Fatal(err)
	}
	l, err := store.Open(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	shard := l.Snapshot().Graph()
	ov := graph.NewOverlay(shard)
	halo := []haloNode{{id: u, out: []haloEdge{{to: a, label: "x"}, {to: a, label: "_"}}}}
	for round := 0; round < 2; round++ {
		if err := applyHalo(ov, halo); err != nil {
			t.Fatal(err)
		}
		if got := ov.OutDegree(u); got != 2 {
			t.Fatalf("round %d: worker view has out-degree %d at the halo node, the full graph 2", round, got)
		}
		if !shard.HasEdge(u, a, "_") || !shard.HasEdge(u, a, "x") {
			t.Fatalf("round %d: the view lost a halo edge", round)
		}
	}
}
