package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomFreezeGraph builds a random labeled/attributed graph exercising
// everything the freeze pipeline shards: skewed degrees, nodes without
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
	if !slices.Equal(want.syms.names, got.syms.names) {
		t.Fatalf("symbol tables differ:\nserial   %v\nparallel %v", want.syms.names, got.syms.names)
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

// TestParallelFreezeEquivalence pins the parallel builder's differential
// guarantee: for random graphs and any worker count, buildSnapshotParallel
// emits a snapshot byte-identical to the serial builder's. Run with
// -cpu 1,4 in CI so the GOMAXPROCS==1 environment exercises it too.
func TestParallelFreezeEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		for _, n := range []int{1, 7, 100, 500} {
			g := randomFreezeGraph(seed, n)
			want := g.BuildSnapshot(1)
			for _, w := range []int{2, 3, 4, 7, 16} {
				got := g.BuildSnapshot(w)
				requireSnapshotsEqual(t, want, got)
			}
		}
	}
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

// TestConcurrentFreezeSharesOneBuild is the -race target for the
// build-once guard: many concurrent Freeze callers during mutation-free
// reads must share a single construction (one snapshot pointer, one
// build), with readers of the published snapshot racing freely alongside.
func TestConcurrentFreezeSharesOneBuild(t *testing.T) {
	g := randomFreezeGraph(3, 400)
	const callers = 16
	snaps := make([]*Snapshot, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
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
			t.Fatalf("caller %d got a different snapshot", i)
		}
	}
	if builds := g.SnapshotBuilds(); builds != 1 {
		t.Fatalf("SnapshotBuilds = %d, want 1 (build-once guard)", builds)
	}
}

// TestSetFreezeWorkersOverride pins the knob precedence: an explicit
// override wins over the environment/GOMAXPROCS default, and resetting it
// restores the default resolution.
func TestSetFreezeWorkersOverride(t *testing.T) {
	defer SetFreezeWorkers(0)
	SetFreezeWorkers(3)
	if got := FreezeWorkers(); got != 3 {
		t.Fatalf("FreezeWorkers after SetFreezeWorkers(3) = %d", got)
	}
	SetFreezeWorkers(0)
	if got := FreezeWorkers(); got < 1 {
		t.Fatalf("default FreezeWorkers = %d, want >= 1", got)
	}
}

// BenchmarkBuildSnapshot prices the freeze pipeline serial vs parallel on
// one mid-sized graph (TestFreezeSpeedupMultiCore gates the 4-worker
// speedup; the benchmark's graph.freeze_s times the freeze end to end).
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
