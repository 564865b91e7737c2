package exp

import (
	"context"
	"fmt"
	"time"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// AccuracyRow is one line of the Fig. 9 table: a detection model with its
// recall, precision and running time on the noise-injected graph.
type AccuracyRow struct {
	Model     string
	Recall    float64
	Precision float64
	Rules     int // rules the model could express
	Time      time.Duration
}

// Fig9Accuracy reproduces the Appendix comparison table (Fig. 9): GFDs vs
// GCFDs vs a BigDansing-style join engine on a YAGO2-like graph.
// Following the paper's methodology, rules are mined on the clean graph
// and noise is injected into sampled rule-covered entities (with the
// rules' constants taken from pre-noise values); detected entities are the
// endpoints of *failed consequent literals* of violating matches.
//
// The reproduction targets the paper's shape: GFD recall strictly above
// GCFD recall (GCFDs drop every non-path rule), identical accuracy between
// GFD and BigDansing (same rules, different evaluation), and BigDansing
// several times slower.
func Fig9Accuracy(c Config) []AccuracyRow {
	c = c.Defaults()
	g := c.cleanGraph()
	set := c.Mine(g)
	errs := gen.InjectTargeted(g, set, c.NoiseRate*10, c.Seed+1)
	truth := gen.GroundTruth(errs)

	// All three models run from one prepared session: the shared freeze
	// and rule lowering drop out, so the timed gap is purely evaluation
	// strategy (pivot-localized search vs path scans vs relational joins).
	prep, err := mustSession(g).Prepare(set)
	if err != nil {
		panic(err)
	}
	ctx := context.Background()

	var out []AccuracyRow
	row := func(model string, opt validate.Options) {
		// Keep the timed region purely evaluation: derive the engine's
		// lazy artifacts (grouping variant, GCFD conversion, relational
		// encoding) first.
		prep.WarmEngine(opt)
		start := time.Now()
		res, err := prep.Detect(ctx, opt)
		elapsed := time.Since(start)
		if err != nil {
			panic(fmt.Errorf("fig9 %s: %w", model, err))
		}
		p, r := gen.PrecisionRecall(truth, failedLiteralNodes(g, set, res.Violations))
		out = append(out, AccuracyRow{Model: model, Recall: r, Precision: p, Rules: res.Rules, Time: elapsed})
	}
	// GFD engine (repVal, n=16); GCFD baseline (path-expressible rules
	// only); BigDansing-style join engine (all rules, join evaluation).
	row("GFD", validate.Options{Engine: validate.EngineReplicated, N: 16, NoReduce: true})
	row("GCFD", validate.Options{Engine: validate.EngineGCFD})
	row("BigDansing", validate.Options{Engine: validate.EngineBigDansing, N: 16})
	return out
}

// failedLiteralNodes extracts the inconsistent-entity set Vio(A) from a
// violation report. Constant-literal failures implicate their single
// endpoint. For a failed variable literal x.A = y.B the culprit is
// resolved by blame voting: across all failures of that literal, the
// endpoint disagreeing with the larger number of distinct partners is
// blamed (a corrupted value disagrees with everyone; an innocent partner
// disagrees only with corrupted ones). Ties blame both endpoints — from
// data alone a 1-vs-1 disagreement is symmetric.
func failedLiteralNodes(g *graph.Graph, set *core.Set, vio validate.Report) graph.NodeSet {
	out := make(graph.NodeSet)
	type litKey struct {
		rule string
		idx  int
	}
	type pair struct{ a, b graph.NodeID }
	disagree := make(map[litKey]map[graph.NodeID]map[graph.NodeID]struct{})
	var pairs []struct {
		k litKey
		p pair
	}
	record := func(k litKey, a, b graph.NodeID) {
		m := disagree[k]
		if m == nil {
			m = make(map[graph.NodeID]map[graph.NodeID]struct{})
			disagree[k] = m
		}
		if m[a] == nil {
			m[a] = make(map[graph.NodeID]struct{})
		}
		if m[b] == nil {
			m[b] = make(map[graph.NodeID]struct{})
		}
		m[a][b] = struct{}{}
		m[b][a] = struct{}{}
	}
	for _, v := range vio {
		f := set.Get(v.Rule)
		if f == nil {
			continue
		}
		for li, l := range f.Y {
			if literalHolds(g, f, v.Match, l) {
				continue
			}
			xi, _ := f.Q.VarIndex(l.X)
			if l.Kind == core.Constant {
				out.Add(v.Match[xi])
				continue
			}
			yi, _ := f.Q.VarIndex(l.Y)
			// A missing attribute unambiguously blames its owner.
			_, xok := g.Attr(v.Match[xi], l.A)
			_, yok := g.Attr(v.Match[yi], l.B)
			switch {
			case !xok:
				out.Add(v.Match[xi])
			case !yok:
				out.Add(v.Match[yi])
			default:
				k := litKey{v.Rule, li}
				record(k, v.Match[xi], v.Match[yi])
				pairs = append(pairs, struct {
					k litKey
					p pair
				}{k, pair{v.Match[xi], v.Match[yi]}})
			}
		}
	}
	for _, e := range pairs {
		ca := len(disagree[e.k][e.p.a])
		cb := len(disagree[e.k][e.p.b])
		if ca >= cb {
			out.Add(e.p.a)
		}
		if cb >= ca {
			out.Add(e.p.b)
		}
	}
	return out
}

func literalHolds(g *graph.Graph, f *core.GFD, m core.Match, l core.Literal) bool {
	xi, _ := f.Q.VarIndex(l.X)
	xv, ok := g.Attr(m[xi], l.A)
	if !ok {
		return false
	}
	if l.Kind == core.Constant {
		return xv == l.C
	}
	yi, _ := f.Q.VarIndex(l.Y)
	yv, ok := g.Attr(m[yi], l.B)
	return ok && xv == yv
}
