// Allocation-tracked benchmarks for sequential detection: the snapshot
// path DetVio now runs on, against the legacy slice-backed enumeration it
// replaced. Run with
//
//	go test ./internal/validate -bench=BenchmarkDetVio -benchmem
package validate

import (
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
)

func detVioWorkload() (*graph.Graph, *core.Set) {
	clean := gen.YAGO2Like(gen.DatasetConfig{Scale: 250, Seed: 42})
	set := gen.MineGFDs(clean, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 44})
	gen.Inject(clean, gen.NoiseConfig{Rate: 0.02, Seed: 43})
	return clean, set
}

// detVioLegacy is the pre-snapshot sequential detector, kept verbatim as
// the benchmark baseline: it walks the mutable graph's [][]HalfEdge slices
// with string label comparison.
func detVioLegacy(g *graph.Graph, set *core.Set) Report {
	var out Report
	for _, f := range set.Rules() {
		match.Enumerate(g, f.Q, match.Options{}, func(m core.Match) bool {
			if f.IsViolation(g, m) {
				out = append(out, Violation{Rule: f.Name, Match: append(core.Match(nil), m...)})
			}
			return true
		})
	}
	out.Sort()
	return out
}

func BenchmarkDetVio(b *testing.B) {
	g, set := detVioWorkload()
	var want, got Report
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			want = detVioLegacy(g, set)
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		g.Freeze() // amortized across runs, as in production use
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got = detVio(g, set)
		}
	})
	if want != nil && got != nil && !want.Equal(got) {
		b.Fatalf("paths disagree: legacy %d violations, snapshot %d", len(want), len(got))
	}
}
