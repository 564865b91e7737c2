package store_test

import (
	"context"
	"path/filepath"
	"testing"

	"gfd/internal/gen"
	"gfd/internal/store"
)

// BenchmarkOpen times Open + Close of the DBpedia-like scale-6000 snapshot
// (the graph shape of the repository benchmark's kb_cold_rep workload):
// mapping, body checksums, structural validation and the symbol index.
// Run with -benchmem; ns/op is the whole per-open cost.
func BenchmarkOpen(b *testing.B) {
	ctx := context.Background()
	s := gen.DBpediaLike(gen.DatasetConfig{Scale: 6000, Seed: 1}).Freeze()
	path := filepath.Join(b.TempDir(), "kb.gfds")
	if err := store.Save(ctx, s, path); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.NumNodes()), "nodes")
	b.ReportMetric(float64(s.NumEdges()), "edges")
	b.ReportMetric(float64(s.Syms().Len()), "symbols")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := store.Open(ctx, path)
		if err != nil {
			b.Fatal(err)
		}
		if err := l.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
