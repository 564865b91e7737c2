package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// randomFreezeGraph builds a random labeled/attributed graph exercising
// everything the snapshot build orders: skewed degrees, nodes without
// attributes, and attribute values colliding with node and edge labels in
// the shared symbol namespace (the ordering-sensitive case for
// deterministic interning).
func randomFreezeGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"person", "org", "city", "product", "_x"}
	elabels := []string{"knows", "works_at", "in", "likes"}
	attrs := []string{"name", "val", "country", "knows"} // "knows" collides with an edge label
	g := New(n, n*3)
	for i := 0; i < n; i++ {
		var a Attrs
		if rng.Intn(4) != 0 {
			a = make(Attrs)
			for _, k := range attrs {
				if rng.Intn(2) == 0 {
					switch rng.Intn(3) {
					case 0:
						a[k] = fmt.Sprintf("v%d", rng.Intn(n/2+1))
					case 1:
						a[k] = labels[rng.Intn(len(labels))] // value == node label
					default:
						a[k] = elabels[rng.Intn(len(elabels))] // value == edge label
					}
				}
			}
		}
		g.AddNode(labels[rng.Intn(len(labels))], a)
	}
	m := rng.Intn(3*n + 1)
	for i := 0; i < m; i++ {
		from := NodeID(rng.Intn(n))
		if rng.Intn(5) == 0 { // skew: hubs
			from = NodeID(rng.Intn(n/10 + 1))
		}
		to := NodeID(rng.Intn(n))
		g.MustAddEdge(from, to, elabels[rng.Intn(len(elabels))])
	}
	return g
}

// requireSnapshotsEqual asserts byte-identical snapshots: symbol table,
// CSR arrays (both halves), attribute arena, class ranges.
func requireSnapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if !slices.Equal(want.syms.blob, got.syms.blob) || !slices.Equal(want.syms.off, got.syms.off) {
		t.Fatalf("symbol tables differ:\nserial   %q %v\nparallel %q %v", want.syms.blob, want.syms.off, got.syms.blob, got.syms.off)
	}
	if !slices.Equal(want.labels, got.labels) {
		t.Fatalf("label arrays differ")
	}
	if !slices.Equal(want.outOff, got.outOff) || !slices.Equal(want.out, got.out) {
		t.Fatalf("out CSR differs")
	}
	if !slices.Equal(want.inOff, got.inOff) || !slices.Equal(want.in, got.in) {
		t.Fatalf("in CSR differs")
	}
	if !slices.Equal(want.attrOff, got.attrOff) || !slices.Equal(want.attrPairs, got.attrPairs) {
		t.Fatalf("attribute arena differs")
	}
	if !slices.Equal(want.classOff, got.classOff) || !slices.Equal(want.classes, got.classes) {
		t.Fatalf("label classes differ")
	}
}

// TestParallelFreezeEquivalence pins the builder's differential
// guarantee: for any worker count, BuildSnapshot emits a snapshot
// byte-identical to the one-worker build, whose adjacency is in (label,
// neighbour label, neighbour) order. Besides random graphs the inputs are
// the ones that stress the parallel sort: a graph rebuilt from its
// persisted image (rows arrive sorted, the input Freeze sees after a
// store round trip), a hub outweighing a whole node range, enough
// distinct values to rehash the symbol table many times while it is
// filled without the lock, and a graph without edges. Run with -cpu 1,4
// in CI so the GOMAXPROCS==1 environment exercises it too.
func TestParallelFreezeEquivalence(t *testing.T) {
	type input struct {
		name string
		g    *Graph
	}
	var inputs []input
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range []int{1, 7, 100, 500} {
			inputs = append(inputs, input{fmt.Sprintf("seed=%d/n=%d", seed, n), randomFreezeGraph(seed, n)})
		}
	}
	inputs = append(inputs,
		input{"roundtrip", roundTripGraph(t, randomFreezeGraph(9, 2000))},
		input{"hub", hubGraph(2000)},
		input{"rehash", manyValuesGraph(3000)},
		input{"edgeless", edgelessGraph(300)},
	)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			want := in.g.BuildSnapshot(1)
			requireCSROrder(t, want)
			for _, w := range []int{2, 3, 4, 7, 16} {
				got := in.g.BuildSnapshot(w)
				requireSnapshotsEqual(t, want, got)
			}
		})
	}
}

// roundTripGraph returns g rebuilt from its persisted image: Flat, then
// AdoptFlat, then Clone, which reads the sorted rows into a building
// graph.
func roundTripGraph(t *testing.T, g *Graph) *Graph {
	t.Helper()
	f, err := g.Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	s, err := AdoptFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	return s.Graph().Clone()
}

// hubGraph is a sparse random graph whose node 3 has an edge to and from
// every other node, so it alone outweighs any one range of a split.
func hubGraph(n int) *Graph {
	g := randomFreezeGraph(11, n)
	for v := 0; v < n; v++ {
		if v != 3 {
			g.MustAddEdge(3, NodeID(v), "knows")
			g.MustAddEdge(NodeID(v), 3, "likes")
		}
	}
	return g
}

// manyValuesGraph gives every node distinct values, one of them also an
// edge label, so the table grows from 16 slots through many rehashes.
func manyValuesGraph(n int) *Graph {
	g := New(n, n)
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprintf("l%d", v%5), Attrs{"a": fmt.Sprintf("u%d", v), "b": fmt.Sprintf("w%d", n-v), "c": fmt.Sprintf("e%d", v%7)})
	}
	for v := 1; v < n; v++ {
		g.MustAddEdge(NodeID(v), NodeID((v*7)%n), fmt.Sprintf("e%d", v%7))
	}
	return g
}

// edgelessGraph has attributed nodes and no edges.
func edgelessGraph(n int) *Graph {
	g := New(n, 0)
	for v := 0; v < n; v++ {
		g.AddNode([]string{"a", "b", "c"}[v%3], Attrs{"k": fmt.Sprintf("%d", v%11)})
	}
	return g
}

// FuzzFreezeParallel fuzzes the same differential guarantee over the
// (seed, size, workers) space.
func FuzzFreezeParallel(f *testing.F) {
	f.Add(int64(42), 64, 4)
	f.Add(int64(7), 200, 3)
	f.Add(int64(1), 1, 2)
	f.Fuzz(func(t *testing.T, seed int64, n, workers int) {
		n = n%700 + 1
		if n < 0 {
			n = -n + 1
		}
		workers = workers%16 + 2
		if workers < 2 {
			workers = 2
		}
		g := randomFreezeGraph(seed, n)
		requireSnapshotsEqual(t, g.BuildSnapshot(1), g.BuildSnapshot(workers))
	})
}

// TestConcurrentFreezeSharesOneBuild is the -race target for Freeze's
// lock: many concurrent Freeze callers during mutation-free reads must
// share a single construction (one snapshot pointer, one build), with
// readers of the published snapshot and of the graph racing freely
// alongside — on a building graph, and on one an overlay sealed, where
// the build is the compaction that replaces the graph's read source.
func TestConcurrentFreezeSharesOneBuild(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		g := randomFreezeGraph(3, 400)
		if sealed {
			ov := NewOverlay(g)
			ov.SetAttr(5, "val", "rewritten")
			ov.MustAddEdge(ov.AddNode("person", nil), 5, "knows")
		}
		builds := g.SnapshotBuilds()
		const callers = 16
		snaps := make([]*Snapshot, callers)
		var wg sync.WaitGroup
		wg.Add(callers)
		for i := 0; i < callers; i++ {
			go func(i int) {
				defer wg.Done()
				if i%2 == 1 {
					// Graph reads concurrent with the build.
					if got, _ := g.Attr(5, "val"); sealed && got != "rewritten" {
						t.Errorf("Attr(5, val) = %q during a compaction, want rewritten", got)
					}
					_ = g.NodeAttrs(5)
					_ = g.Out(5)
				}
				s := g.Freeze()
				snaps[i] = s
				// Mutation-free reads concurrent with other Freeze callers.
				for v := 0; v < s.NumNodes(); v += 37 {
					_ = s.Out(NodeID(v))
					_, _ = s.AttrSym(NodeID(v), 1)
				}
			}(i)
		}
		wg.Wait()
		for i := 1; i < callers; i++ {
			if snaps[i] != snaps[0] {
				t.Fatalf("sealed=%v: caller %d got a different snapshot", sealed, i)
			}
		}
		if got := g.SnapshotBuilds() - builds; got != 1 {
			t.Fatalf("sealed=%v: %d builds, want 1 (one lock around the build)", sealed, got)
		}
	}
}

// BenchmarkBuildSnapshot prices the snapshot build at 1, 2 and 4 workers
// on one mid-sized random graph (BenchmarkBuildSnapshotShapes covers the
// benchmark workloads' shapes; the benchmark's graph.freeze_s times the
// freeze end to end).
func BenchmarkBuildSnapshot(b *testing.B) {
	g := randomFreezeGraph(1, 20000)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g.BuildSnapshot(w)
			}
		})
	}
}

// BenchmarkCompact prices compaction beside BenchmarkBuildSnapshot on the
// same mutated graph: the graph from BenchmarkBuildSnapshot takes an
// eighth of its size in mixed updates through an overlay, then "flatten"
// copies the patched view into flat arrays (what Freeze does to a graph an
// overlay wrote) and "freeze" builds the snapshot from a building clone
// of the same graph with the worker count Freeze uses on a building graph
// (what compaction cost when overlays wrote through).
func BenchmarkCompact(b *testing.B) {
	g := randomFreezeGraph(1, 20000)
	ov := NewOverlay(g)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < g.Size()/8; i++ {
		n := ov.NumNodes()
		switch i % 3 {
		case 0:
			ov.AddNode("person", Attrs{"val": fmt.Sprintf("u%d", i)})
		case 1:
			ov.MustAddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), "knows")
		default:
			ov.SetAttr(NodeID(rng.Intn(n)), "val", fmt.Sprintf("s%d", i))
		}
	}
	b.Run("flatten", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			flatten(ov.Snapshot)
		}
	})
	b.Run("freeze", func(b *testing.B) {
		c := g.Clone()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buildSnapshot(c, workersFor(c.Size()))
		}
	})
}

// goroutineID parses the current goroutine's id from its stack header.
func goroutineID() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestDrain: every task runs exactly once, task 0 always on the calling
// goroutine (the validation pass puts its one long task there), and a
// panicking task is re-raised on the caller only after the other tasks
// have run.
func TestDrain(t *testing.T) {
	caller := goroutineID()
	for _, workers := range []int{1, 2, 4, 16} {
		for _, n := range []int{1, 2, 5, 64} {
			counts := make([]int32, n)
			var mu sync.Mutex
			drain(workers, n, func(i int) {
				if i == 0 && goroutineID() != caller {
					t.Errorf("workers=%d n=%d: task 0 ran off the calling goroutine", workers, n)
				}
				mu.Lock()
				counts[i]++
				mu.Unlock()
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, c)
				}
			}
		}
	}
	var ran sync.Map
	func() {
		defer func() {
			if p := recover(); p != "task 3" {
				t.Fatalf("recovered %v, want the panic of task 3", p)
			}
		}()
		drain(4, 32, func(i int) {
			ran.Store(i, true)
			if i == 3 {
				panic("task 3")
			}
		})
		t.Fatal("drain returned normally over a panicking task")
	}()
	for i := 0; i < 32; i++ {
		if _, ok := ran.Load(i); !ok {
			t.Fatalf("task %d never ran after task 3 panicked", i)
		}
	}
}
