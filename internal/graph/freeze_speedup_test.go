package graph_test

import (
	"fmt"
	"runtime"
	"testing"

	"gfd/internal/gen"
	"gfd/internal/graph"
)

// BenchmarkBuildSnapshotShapes prices the snapshot build on the
// benchmark workloads' graph shapes — the DBpedia-like graph of
// kb_cold_rep, the YAGO2-like graph of kb_updates and a power-law graph
// the size of the cyclic workloads' — at one worker and at GOMAXPROCS.
// Each shape is built fresh and after a Flat → AdoptFlat → Clone round
// trip, whose adjacency rows arrive already sorted: the input the
// benchmark's graph.freeze_s probe freezes. It prints, it gates nothing.
func BenchmarkBuildSnapshotShapes(b *testing.B) {
	shapes := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"dbpedia6000", func() *graph.Graph { return gen.DBpediaLike(gen.DatasetConfig{Scale: 6000, Seed: 1}) }},
		{"yago10000", func() *graph.Graph { return gen.YAGO2Like(gen.DatasetConfig{Scale: 10000, Seed: 1}) }},
		{"synthetic20k", func() *graph.Graph {
			return gen.Synthetic(gen.SyntheticConfig{Nodes: 20000, Edges: 300000, Skew: 0.5, Seed: 1})
		}},
	}
	workers := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		workers = append(workers, p)
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			fresh := sh.build()
			for _, in := range []struct {
				name string
				g    *graph.Graph
			}{{"fresh", fresh}, {"roundtrip", roundTrip(b, fresh)}} {
				for _, w := range workers {
					b.Run(fmt.Sprintf("%s/workers=%d", in.name, w), func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							in.g.BuildSnapshot(w)
						}
					})
				}
			}
		})
	}
}

// roundTrip returns a copy of g rebuilt from its persisted image.
func roundTrip(tb testing.TB, g *graph.Graph) *graph.Graph {
	tb.Helper()
	f, err := g.Freeze().Flat()
	if err != nil {
		tb.Fatal(err)
	}
	s, err := graph.AdoptFlat(f)
	if err != nil {
		tb.Fatal(err)
	}
	return s.Graph().Clone()
}
