// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 7). Each figure has a Benchmark* entry; run
//
//	go test -bench=. -benchmem
//
// for the full sweep, or e.g. -bench=Fig5VaryProcessors for one figure.
// Custom metrics: violations/op (work done), comm-ms/op (modeled
// communication time), recall/precision for the accuracy table. The
// cmd/gfdbench tool prints the same sweeps as paper-style tables.
package gfd_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"gfd"
	"gfd/internal/baseline"
	"gfd/internal/core"
	"gfd/internal/exp"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/validate"
	"gfd/internal/workload"
)

// benchConfig is the shared workload scale for the figure benchmarks:
// large enough that parallelism wins, small enough that the whole harness
// finishes in minutes (the README's opening paragraph: scaled-down
// stand-ins of the paper's datasets).
func benchConfig(dataset string) exp.Config {
	return exp.Config{Dataset: dataset, Scale: 250, Rules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 42}
}

func reportResult(b *testing.B, res *validate.Result) {
	b.ReportMetric(float64(len(res.Violations)), "violations/op")
	b.ReportMetric(float64(res.Units), "units/op")
	b.ReportMetric(res.ModeledComm().Seconds()*1000, "comm-ms/op")
}

// BenchmarkFig5VaryProcessors regenerates Fig. 5(a–c): all six algorithms
// on the three dataset stand-ins as the worker count grows.
func BenchmarkFig5VaryProcessors(b *testing.B) {
	for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
		w := exp.Prepare(benchConfig(ds))
		for _, n := range []int{4, 8, 16, 20} {
			for _, alg := range exp.SixAlgorithms {
				b.Run(fmt.Sprintf("%s/n=%d/%s", ds, n, alg), func(b *testing.B) {
					var res *validate.Result
					for i := 0; i < b.N; i++ {
						res = exp.RunAlgorithm(alg, w, n, 42)
					}
					reportResult(b, res)
				})
			}
		}
	}
}

// BenchmarkFig5VarySigma regenerates Fig. 5(d,f,h): time as the rule count
// grows, n = 16.
func BenchmarkFig5VarySigma(b *testing.B) {
	for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
		for _, rules := range []int{4, 8, 12, 16} {
			c := benchConfig(ds)
			c.Rules = rules
			w := exp.Prepare(c)
			for _, alg := range []string{"repVal", "repnop", "disVal", "disnop"} {
				b.Run(fmt.Sprintf("%s/rules=%d/%s", ds, w.Set.Len(), alg), func(b *testing.B) {
					var res *validate.Result
					for i := 0; i < b.N; i++ {
						res = exp.RunAlgorithm(alg, w, 16, 42)
					}
					reportResult(b, res)
				})
			}
		}
	}
}

// BenchmarkFig5VaryPatternSize regenerates Fig. 5(e,g,i): time as |Q|
// grows 2 → 6 pattern nodes, n = 16.
func BenchmarkFig5VaryPatternSize(b *testing.B) {
	for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
		for _, q := range []int{2, 4, 6} {
			c := benchConfig(ds)
			c.PatternSize = q
			w := exp.Prepare(c)
			for _, alg := range []string{"repVal", "disVal"} {
				b.Run(fmt.Sprintf("%s/q=%d/%s", ds, q, alg), func(b *testing.B) {
					var res *validate.Result
					for i := 0; i < b.N; i++ {
						res = exp.RunAlgorithm(alg, w, 16, 42)
					}
					reportResult(b, res)
				})
			}
		}
	}
}

// BenchmarkFig5Communication regenerates Fig. 5(j–l): the communication
// cost of the fragmented algorithms; comm-ms/op is the plotted metric.
func BenchmarkFig5Communication(b *testing.B) {
	for _, ds := range []string{"dbpedia", "yago2", "pokec"} {
		w := exp.Prepare(benchConfig(ds))
		for _, n := range []int{4, 12, 20} {
			for _, alg := range []string{"disVal", "disran", "disnop"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", ds, n, alg), func(b *testing.B) {
					var res *validate.Result
					for i := 0; i < b.N; i++ {
						res = exp.RunAlgorithm(alg, w, n, 42)
					}
					b.ReportMetric(res.ModeledComm().Seconds()*1000, "comm-ms/op")
					b.ReportMetric(float64(res.BytesShipped), "bytes-shipped/op")
				})
			}
		}
	}
}

// BenchmarkFig6ScaleGraph regenerates Fig. 6: disVal and variants on
// synthetic power-law graphs of growing size, n = 16.
func BenchmarkFig6ScaleGraph(b *testing.B) {
	for _, mult := range []int{1, 2, 4} {
		c := exp.Config{Dataset: "synthetic", Scale: 100 * mult, Rules: 6, PatternSize: 4, Seed: 42}
		w := exp.Prepare(c)
		for _, alg := range []string{"disVal", "disran", "disnop"} {
			b.Run(fmt.Sprintf("G=%dx/%s", mult, alg), func(b *testing.B) {
				var res *validate.Result
				for i := 0; i < b.N; i++ {
					res = exp.RunAlgorithm(alg, w, 16, 42)
				}
				reportResult(b, res)
			})
		}
	}
}

// BenchmarkFig7RealLifeGFDs regenerates Fig. 7 / Exp-5: the three
// real-life GFDs over a knowledge graph with injected structural errors.
func BenchmarkFig7RealLifeGFDs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings := exp.Fig7RealLife(300, 5, 42)
		caught, injected := 0, 0
		for _, f := range findings {
			caught += f.Caught
			injected += f.Injected
		}
		if caught < injected {
			b.Fatalf("Fig 7 reproduction failed: caught %d of %d", caught, injected)
		}
		b.ReportMetric(float64(caught), "errors-caught/op")
	}
}

// BenchmarkFig8Skew regenerates the Appendix skew experiment: disVal's
// replicate-and-split strategy against the variants on increasingly
// skewed synthetic graphs.
func BenchmarkFig8Skew(b *testing.B) {
	for _, skew := range []float64{0.1, 0.5, 0.9} {
		clean := gen.Synthetic(gen.SyntheticConfig{Nodes: 2500, Edges: 5000, Skew: skew, Seed: 42})
		set := gen.MineGFDs(clean, gen.MineConfig{NumRules: 6, PatternSize: 4, Seed: 44})
		gen.Inject(clean, gen.NoiseConfig{Rate: 0.02, Seed: 43})
		w := exp.NewWorkload(clean, set)
		for _, alg := range []string{"disVal", "disran", "disnop"} {
			b.Run(fmt.Sprintf("skew=%.1f/%s", skew, alg), func(b *testing.B) {
				var res *validate.Result
				for i := 0; i < b.N; i++ {
					res = exp.RunAlgorithm(alg, w, 16, 42)
				}
				reportResult(b, res)
				b.ReportMetric(float64(res.SplitUnits), "split-units/op")
			})
		}
	}
}

// BenchmarkFig9Accuracy regenerates the Fig. 9 table: GFD vs GCFD vs
// BigDansing recall/precision/time. The recall and precision land as
// custom metrics; the paper's shape (GFD ≈ BigDansing accuracy, GCFD
// lower recall, BigDansing slower) is asserted.
func BenchmarkFig9Accuracy(b *testing.B) {
	c := exp.Config{Scale: 400, Rules: 12, PatternSize: 4, TwoCompFrac: 0.5, NoiseRate: 0.05, Seed: 3}
	var rows []exp.AccuracyRow
	for i := 0; i < b.N; i++ {
		rows = exp.Fig9Accuracy(c)
	}
	for _, r := range rows {
		prefix := map[string]string{"GFD": "gfd", "GCFD": "gcfd", "BigDansing": "bigdansing"}[r.Model]
		b.ReportMetric(r.Recall, prefix+"-recall")
		b.ReportMetric(r.Precision, prefix+"-precision")
		b.ReportMetric(r.Time.Seconds()*1000, prefix+"-ms")
	}
}

// BenchmarkSequentialVsParallel covers Exp-1/Exp-2's detVio comparison:
// the sequential algorithm against repVal with 16 workers on the same
// workload (the paper's detVio did not terminate at all at full scale).
func BenchmarkSequentialVsParallel(b *testing.B) {
	w := exp.Prepare(benchConfig("yago2"))
	b.Run("detVio", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			_ = validate.DetVioB(ctx, validate.NewBundle(w.G, w.Set), validate.NewCollectSink(1))
			cancel()
		}
	})
	b.Run("repVal-n16", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coldRound(b, w.G, w.Set, nil, validate.Options{N: 16})
		}
	})
}

// BenchmarkSessionReuse is the prepared-session payoff benchmark: warm
// Detect rounds on one Prepared (freeze, reduction, grouping and rule
// lowering all amortized) against the cold per-request path on a fresh
// graph copy per call (cloning excluded from the timing). The repository
// benchmark's session.prepare_s and session.warm_detect_s time the same
// two layers end to end.
func BenchmarkSessionReuse(b *testing.B) {
	w := exp.Prepare(benchConfig("yago2"))
	opt := gfd.Options{Engine: gfd.EngineReplicated, N: 8}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			gc := w.G.Clone()
			b.StartTimer()
			coldRound(b, gc, w.Set, nil, opt)
		}
	})
	b.Run("warm", func(b *testing.B) {
		prep := w.Prepared()
		ctx := context.Background()
		if _, err := prep.Detect(ctx, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prep.Detect(ctx, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// coldRound is one per-request round: a throwaway bundle over g (freeze,
// reduction, grouping and lowering re-paid), then repVal — or disVal when
// frag is given.
func coldRound(b *testing.B, g *graph.Graph, set *core.Set, frag *fragment.Fragmentation, opt validate.Options) *validate.Result {
	bundle := validate.NewBundle(g, set)
	var res *validate.Result
	var err error
	if frag != nil {
		res, err = validate.DisValB(context.Background(), bundle, frag, opt, nil)
	} else {
		res, err = validate.RepValB(context.Background(), bundle, opt, nil)
	}
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// --- Ablation benchmarks, one per validate.Options ablation switch -------

// BenchmarkAblationShipping compares disVal's adaptive prefetch/partial
// strategy selection against forcing prefetch for every unit.
func BenchmarkAblationShipping(b *testing.B) {
	w := exp.Prepare(benchConfig("yago2"))
	frag := fragment.Partition(w.G, 8, fragment.Hash)
	b.Run("adaptive", func(b *testing.B) {
		var res *validate.Result
		for i := 0; i < b.N; i++ {
			res = coldRound(b, w.G, w.Set, frag, validate.Options{N: 8})
		}
		b.ReportMetric(float64(res.BytesShipped), "bytes-shipped/op")
		b.ReportMetric(float64(res.PartialUnits), "partial-units/op")
	})
	b.Run("prefetch-only", func(b *testing.B) {
		var res *validate.Result
		for i := 0; i < b.N; i++ {
			res = coldRound(b, w.G, w.Set, frag, validate.Options{N: 8, NoOptimize: true})
		}
		b.ReportMetric(float64(res.BytesShipped), "bytes-shipped/op")
	})
}

// BenchmarkAblationSplitThreshold sweeps the replicate-and-split θ on a
// skewed graph.
func BenchmarkAblationSplitThreshold(b *testing.B) {
	clean := gen.Synthetic(gen.SyntheticConfig{Nodes: 2500, Edges: 6000, Skew: 0.9, Seed: 7})
	set := gen.MineGFDs(clean, gen.MineConfig{NumRules: 5, PatternSize: 4, Seed: 8})
	w := exp.NewWorkload(clean, set)
	for _, theta := range []int{-1, 0, 64, 256} {
		name := fmt.Sprintf("theta=%d", theta)
		if theta == -1 {
			name = "disabled"
		} else if theta == 0 {
			name = "auto"
		}
		b.Run(name, func(b *testing.B) {
			var res *validate.Result
			for i := 0; i < b.N; i++ {
				res = coldRound(b, w.G, w.Set, nil, validate.Options{N: 16, SplitThreshold: theta})
			}
			b.ReportMetric(float64(res.SplitUnits), "split-units/op")
			b.ReportMetric(float64(res.Makespan), "makespan/op")
		})
	}
}

// BenchmarkAblationGrouping isolates multi-query pattern grouping.
func BenchmarkAblationGrouping(b *testing.B) {
	w := exp.Prepare(benchConfig("yago2"))
	b.Run("grouped", func(b *testing.B) {
		var res *validate.Result
		for i := 0; i < b.N; i++ {
			res = coldRound(b, w.G, w.Set, nil, validate.Options{N: 8, NoReduce: true})
		}
		b.ReportMetric(float64(res.Groups), "groups/op")
	})
	b.Run("ungrouped", func(b *testing.B) {
		var res *validate.Result
		for i := 0; i < b.N; i++ {
			res = coldRound(b, w.G, w.Set, nil, validate.Options{N: 8, NoOptimize: true})
		}
		b.ReportMetric(float64(res.Groups), "groups/op")
	})
}

// --- Micro-benchmarks on the substrates -----------------------------------

func BenchmarkSubgraphIsoStar(b *testing.B) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 400, Seed: 1})
	q := gfd.NewPattern()
	f := q.AddNode("f", "flight")
	id := q.AddNode("i", "id")
	from := q.AddNode("c", "city")
	q.AddEdge(f, id, "number")
	q.AddEdge(f, from, "from")
	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			match.Enumerate(g, q, match.Options{}, func(gfd.Match) bool { return true })
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		m := match.NewMatcher(g.Freeze())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Enumerate(q, match.Options{}, func(gfd.Match) bool { return true })
		}
	})
}

func BenchmarkNeighborhood2Hop(b *testing.B) {
	g := gen.Synthetic(gen.SyntheticConfig{Nodes: 5000, Edges: 15000, Skew: 0.6, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Neighborhood(gfd.NodeID(i%g.NumNodes()), 2)
	}
}

func BenchmarkLPTBalance(b *testing.B) {
	weights := make([]int, 10000)
	for i := range weights {
		weights[i] = (i*7919)%997 + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workload.BalanceLPT(weights, 20)
	}
}

func BenchmarkSatisfiability(b *testing.B) {
	w := exp.Prepare(benchConfig("yago2"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gfd.Satisfiable(w.Set)
	}
}

func BenchmarkImplicationReduce(b *testing.B) {
	w := exp.Prepare(benchConfig("yago2"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gfd.Reduce(w.Set)
	}
}

func BenchmarkBigDansingJoins(b *testing.B) {
	w := exp.Prepare(exp.Config{Dataset: "yago2", Scale: 150, Rules: 5, PatternSize: 4, Seed: 42})
	rel, bundle := baseline.Encode(w.G.Freeze()), validate.NewBundle(w.G, w.Set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = validate.Single(w.Set.Len(), 8, nil, func(s validate.Sink) error {
			return baseline.DetectJoinsB(context.Background(), bundle, rel, 8, s)
		})
	}
}
