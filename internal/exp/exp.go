// Package exp is the experiment harness regenerating every table and
// figure of the paper's evaluation (Section 7). Each Fig* function runs a
// sweep and returns a Table whose rows mirror the paper's plots: the same
// x-axes (n, ‖Σ‖, |Q|, |G|, skew), the same six algorithms (repVal,
// repran, repnop, disVal, disran, disnop), and the same derived metrics
// (total detection time, communication time, accuracy).
//
// Scales are reduced relative to the paper (in-process simulated cluster
// instead of 20 EC2 machines; see the README's opening paragraph and
// validate.Result.ModeledComm): the *shapes* — who wins, by what factor,
// where the curves bend — are the reproduction target, not absolute
// seconds. The README's "Reproducing the evaluation" section
// records paper-vs-measured per figure.
package exp

import (
	"context"
	"fmt"
	"os"
	"strings"
	"unicode/utf8"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/session"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// Config sizes an experiment run.
type Config struct {
	Dataset     string // yago2 | dbpedia | pokec | synthetic
	Scale       int    // dataset scale knob (entities)
	Rules       int    // ‖Σ‖ (the paper used 50–100; scaled down by default)
	PatternSize int    // |Q| in pattern nodes (paper: 2–6, default 5)
	TwoCompFrac float64
	NoiseRate   float64
	Seed        int64

	// GraphPath, when set, loads the experiment graph from a file — the
	// text format, or the binary snapshot format for a .gfds extension —
	// instead of generating one; no noise is injected into a loaded
	// graph (the file is taken as the workload verbatim). RulesPath,
	// when set, parses Σ from a rule file instead of mining it; without
	// it, rules are mined on the loaded graph as-is.
	GraphPath string
	RulesPath string
}

// Defaults fills unset fields.
func (c Config) Defaults() Config {
	if c.Dataset == "" {
		c.Dataset = "yago2"
	}
	if c.Scale <= 0 {
		c.Scale = 300
	}
	if c.Rules <= 0 {
		c.Rules = 10
	}
	if c.PatternSize <= 0 {
		c.PatternSize = 5
	}
	if c.TwoCompFrac == 0 {
		c.TwoCompFrac = 0.25
	}
	if c.NoiseRate == 0 {
		c.NoiseRate = 0.02
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) cleanGraph() *graph.Graph {
	switch c.Dataset {
	case "dbpedia":
		return gen.DBpediaLike(gen.DatasetConfig{Scale: c.Scale, Seed: c.Seed})
	case "pokec":
		return gen.PokecLike(gen.DatasetConfig{Scale: c.Scale, Seed: c.Seed})
	case "synthetic":
		return gen.Synthetic(gen.SyntheticConfig{Nodes: c.Scale * 10, Edges: c.Scale * 20, Skew: 0.5, Seed: c.Seed})
	default:
		return gen.YAGO2Like(gen.DatasetConfig{Scale: c.Scale, Seed: c.Seed})
	}
}

// Rules mines Σ over a clean copy of the dataset (rules must hold on the
// clean data so the noise is what they catch).
func (c Config) Mine(clean *graph.Graph) *core.Set {
	return gen.MineGFDs(clean, gen.MineConfig{
		NumRules:    c.Rules,
		PatternSize: c.PatternSize,
		TwoCompFrac: c.TwoCompFrac,
		Seed:        c.Seed + 2,
	})
}

// Workload bundles a graph + rule set behind one prepared session, so an
// entire sweep — every round, every worker count, all six algorithm
// variants — shares a single freeze, workload reduction, grouping and
// rule lowering. Construct it with NewWorkload (or Prepare).
type Workload struct {
	G    *graph.Graph
	Set  *core.Set
	prep *session.Prepared
}

// NewWorkload prepares a session over g and set and returns the workload
// every sweep round should share.
func NewWorkload(g *graph.Graph, set *core.Set) Workload {
	p, err := mustSession(g).Prepare(set)
	if err != nil {
		panic(err) // harness inputs are constructed, not user-supplied
	}
	return Workload{G: g, Set: set, prep: p}
}

// mustSession opens a session, panicking on the nil-graph error: harness
// graphs are constructed, not user-supplied.
func mustSession(g *graph.Graph) *session.Session {
	s, err := session.New(g)
	if err != nil {
		panic(err)
	}
	return s
}

// Prepared returns the workload's prepared session.
func (w Workload) Prepared() *session.Prepared { return w.prep }

// Prepare mines rules on the clean graph, injects noise, then prepares
// the session on the noisy graph. A Config with GraphPath/RulesPath set
// loads those files instead (see Config); the harness panics on unreadable
// inputs, so CLI callers should pre-validate paths.
func Prepare(c Config) Workload {
	c = c.Defaults()
	if c.GraphPath != "" || c.RulesPath != "" {
		var g *graph.Graph
		if c.GraphPath != "" {
			var err error
			if g, err = LoadGraph(c.GraphPath); err != nil {
				panic(err)
			}
		} else {
			g = c.cleanGraph()
		}
		return NewWorkload(g, c.sigma(g))
	}
	clean := c.cleanGraph()
	set := c.Mine(clean)
	c.inject(clean)
	return NewWorkload(clean, set)
}

// sigma is Σ: parsed from RulesPath when set, else mined on g.
func (c Config) sigma(g *graph.Graph) *core.Set {
	if c.RulesPath == "" {
		return c.Mine(g)
	}
	f, err := os.Open(c.RulesPath)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	set, err := core.ParseRules(f)
	if err != nil {
		panic(err)
	}
	return set
}

// inject adds the configured attribute and representational noise to g.
func (c Config) inject(g *graph.Graph) {
	gen.Inject(g, gen.NoiseConfig{Rate: c.NoiseRate, Seed: c.Seed + 1,
		Kinds: []gen.NoiseKind{gen.AttributeNoise, gen.RepresentationalNoise}})
}

// LoadGraph reads an experiment graph from disk: the line-oriented text
// format, or — for a .gfds extension — the binary snapshot store, opened
// zero-copy off its read-only mapping. The mapping of a .gfds load stays
// open for the process lifetime (experiment graphs live until exit; a
// caller needing eager unmapping should use package store directly).
func LoadGraph(path string) (*graph.Graph, error) {
	if strings.HasSuffix(path, ".gfds") {
		l, err := store.Open(context.Background(), path)
		if err != nil {
			return nil, err
		}
		return l.Snapshot().Graph(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, _, err := graph.Read(f)
	return g, err
}

// Table is one figure's data: rows indexed by the x-axis, one cell per
// series (algorithm).
type Table struct {
	Title  string
	XLabel string
	Series []string
	Rows   []Row
}

// Row is one x-axis point: the plotted cell per series and, for the
// sweeps that plot a modeled time, the measured wall and the work
// (TotalWeight, busy span) beside it.
type Row struct {
	X     string
	Cells map[string]float64
	Wall  map[string]float64
	Work  map[string]string
}

// String renders the table in a paper-style fixed-width layout; a cell
// with a measured wall prints it in parentheses after the plotted value,
// and its work in brackets after that.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	xw, cw := 12, 18 // the x column fits its longest label; work widens cells
	for _, r := range t.Rows {
		xw = max(xw, utf8.RuneCountInString(r.X)+2)
		if r.Work != nil {
			cw = 40
		}
	}
	fmt.Fprintf(&b, "%-*s", xw, t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, "%*s", cw, s)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", xw, r.X)
		for _, s := range t.Series {
			cell := "-"
			if v, ok := r.Cells[s]; ok {
				cell = fmt.Sprintf("%.4f", v)
				if w, ok := r.Wall[s]; ok {
					cell += fmt.Sprintf(" (%.4f)", w)
				}
				if w, ok := r.Work[s]; ok {
					cell += " [" + w + "]"
				}
			}
			fmt.Fprintf(&b, "%*s", cw, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SixAlgorithms is the series order of Fig. 5.
var SixAlgorithms = []string{"repVal", "repran", "repnop", "disVal", "disran", "disnop"}

// RunAlgorithm executes one of the six named algorithms (repVal, repran,
// repnop, disVal, disran, disnop) on a workload with n workers, through
// the workload's prepared session: the freeze and rule lowering were paid
// when the workload was built, and fragmentations are cached per n.
func RunAlgorithm(alg string, w Workload, n int, seed int64) *validate.Result {
	opt := validate.Options{N: n, Seed: seed}
	switch alg {
	case "repran", "disran":
		opt.RandomAssign = true
	case "repnop", "disnop":
		opt.NoOptimize = true
	}
	if strings.HasPrefix(alg, "rep") {
		opt.Engine = validate.EngineReplicated
	} else {
		opt.Engine = validate.EngineFragmented
	}
	res, err := w.Prepared().Detect(context.Background(), opt)
	if err != nil {
		panic(fmt.Errorf("%s n=%d: %w", alg, n, err)) // a partial run must not be plotted as complete
	}
	return res
}

// seconds converts a result to the plotted metric: the modeled n-worker
// parallel time (max per-worker busy span per phase plus communication).
// Wall-clock time would be bounded below by total-work / physical-cores on
// this host regardless of n, so it cannot show n-scaling; the modeled span
// can, and it is what the simulated-cluster substitution reports (see
// validate.Result.ModeledTime).
func seconds(r *validate.Result) float64 { return r.ModeledTime().Seconds() }

// spanNote captions every table whose cells are seconds(): the modeled
// span is the plotted value, the measured wall keeps the substitution
// visible (on a host with fewer cores than n the two diverge), and the
// work shows whether a flat row did flat work.
const spanNote = "cells: modeled n-worker span s (measured wall s) [TotalWeight, busy span s]"

// sweepRow runs each series algorithm on w with n workers and returns
// the row: metric(res) as the plotted cell, Result.Wall and the work
// beside it.
func sweepRow(x string, w Workload, n int, seed int64, series []string, metric func(*validate.Result) float64) Row {
	row := Row{X: x, Cells: map[string]float64{}, Wall: map[string]float64{}, Work: map[string]string{}}
	for _, alg := range series {
		res := RunAlgorithm(alg, w, n, seed)
		row.Cells[alg] = metric(res)
		row.Wall[alg] = res.Wall.Seconds()
		row.Work[alg] = fmt.Sprintf("w=%d busy=%.4f", res.TotalWeight, (res.EstimateSpan + res.DetectSpan).Seconds())
	}
	return row
}

// Fig5VaryN reproduces Fig. 5(a–c): detection time of all six algorithms
// as the worker count grows 4 → 20, for the configured dataset.
func Fig5VaryN(c Config, ns []int) Table {
	c = c.Defaults()
	if len(ns) == 0 {
		ns = []int{4, 8, 12, 16, 20}
	}
	w := Prepare(c)
	t := Table{
		Title:  fmt.Sprintf("Fig 5 — time vs n (%s, ‖Σ‖=%d, |Q|=%d); %s", c.Dataset, w.Set.Len(), c.PatternSize, spanNote),
		XLabel: "n",
		Series: SixAlgorithms,
	}
	for _, n := range ns {
		t.Rows = append(t.Rows, sweepRow(fmt.Sprintf("%d", n), w, n, c.Seed, SixAlgorithms, seconds))
	}
	return t
}

// Fig5VarySigma reproduces Fig. 5(d,f,h): time as ‖Σ‖ grows, n fixed at 16.
// The paper sweeps 50 → 100 rules; the sweep here scales linearly from the
// configured rule budget.
func Fig5VarySigma(c Config, ruleCounts []int) Table {
	c = c.Defaults()
	if len(ruleCounts) == 0 {
		ruleCounts = []int{5, 10, 15, 20, 25}
	}
	t := Table{
		Title:  fmt.Sprintf("Fig 5 — time vs ‖Σ‖ (%s, n=16, |Q|=%d); %s", c.Dataset, c.PatternSize, spanNote),
		XLabel: "‖Σ‖",
		Series: SixAlgorithms,
	}
	for _, rc := range ruleCounts {
		cc := c
		cc.Rules = rc
		w := Prepare(cc)
		t.Rows = append(t.Rows, sweepRow(fmt.Sprintf("%d", w.Set.Len()), w, 16, c.Seed, SixAlgorithms, seconds))
	}
	return t
}

// Fig5VaryQ reproduces Fig. 5(e,g,i): time as the pattern size |Q| grows
// 2 → 6 nodes, n fixed at 16.
func Fig5VaryQ(c Config, sizes []int) Table {
	c = c.Defaults()
	if len(sizes) == 0 {
		sizes = []int{2, 3, 4, 5, 6}
	}
	t := Table{
		Title:  fmt.Sprintf("Fig 5 — time vs |Q| (%s, n=16, ‖Σ‖=%d); %s", c.Dataset, c.Rules, spanNote),
		XLabel: "|Q|",
		Series: SixAlgorithms,
	}
	for _, q := range sizes {
		cc := c
		cc.PatternSize = q
		w := Prepare(cc)
		t.Rows = append(t.Rows, sweepRow(fmt.Sprintf("%d", q), w, 16, c.Seed, SixAlgorithms, seconds))
	}
	return t
}

// Fig5Comm reproduces Fig. 5(j–l): modeled communication time of the three
// fragmented-graph algorithms as n grows.
func Fig5Comm(c Config, ns []int) Table {
	c = c.Defaults()
	if len(ns) == 0 {
		ns = []int{4, 8, 12, 16, 20}
	}
	w := Prepare(c)
	series := []string{"disVal", "disran", "disnop"}
	t := Table{
		Title:  fmt.Sprintf("Fig 5 — communication time vs n (%s); cells: modeled communication s (measured wall s)", c.Dataset),
		XLabel: "n",
		Series: series,
	}
	comm := func(r *validate.Result) float64 { return r.ModeledComm().Seconds() }
	for _, n := range ns {
		t.Rows = append(t.Rows, sweepRow(fmt.Sprintf("%d", n), w, n, c.Seed, series, comm))
	}
	return t
}

// Fig6ScaleG reproduces Fig. 6: disVal and variants on growing synthetic
// graphs, n = 16. The paper grows (10M,20M) → (50M,100M) with Σ fixed; the
// sweep here multiplies the configured base scale 1×..5× and validates
// every graph against one Σ, mined on the base-scale clean graph and made
// scale-free (or parsed from RulesPath) — mining per graph would change Σ
// along with |G|.
func Fig6ScaleG(c Config, multipliers []int) Table {
	c = c.Defaults()
	if len(multipliers) == 0 {
		multipliers = []int{1, 2, 3, 4, 5}
	}
	series := []string{"disVal", "disran", "disnop"}
	t := Table{
		Title:  "Fig 6 — time vs |G| (synthetic, n=16); " + spanNote,
		XLabel: "|G| (x base)",
		Series: series,
	}
	graphAt := func(scale int) *graph.Graph {
		return gen.Synthetic(gen.SyntheticConfig{Nodes: scale * 10, Edges: scale * 20, Labels: fig6Labels, Skew: 0.5, Seed: c.Seed})
	}
	set := c.sigma(graphAt(c.Scale))
	if c.RulesPath == "" {
		set = scaleFree(set)
	}
	for _, m := range multipliers {
		cc := c
		cc.Scale = c.Scale * m
		g := graphAt(cc.Scale)
		if c.RulesPath == "" {
			cc.inject(g) // as Prepare: a rule file's graph is taken clean
		}
		w := NewWorkload(g, set)
		x := fmt.Sprintf("%dx(%dV,%dE,‖Σ‖=%d)", m, g.NumNodes(), g.NumEdges(), set.Len())
		t.Rows = append(t.Rows, sweepRow(x, w, 16, c.Seed, series, seconds))
	}
	return t
}

// fig6Labels is the node and edge label count of Fig. 6's graphs: with
// gen.Synthetic's default 30, a mined path pattern matches in the graph it
// was mined on and almost nowhere else, so its work would not grow with |G|.
const fig6Labels = 3

// scaleFree returns set with each rule that tests a constant replaced by
// u.val = v.val → u.a0 = v.a0 over its pattern's first edge (u, v): a mined
// constant selects nodes the base graph has by construction and a graph of
// another scale may lack.
func scaleFree(set *core.Set) *core.Set {
	var rules []*core.GFD
	for _, f := range set.Rules() {
		if !f.IsVariable() {
			u, v := f.Q.Nodes[f.Q.Edges[0].From].Var, f.Q.Nodes[f.Q.Edges[0].To].Var
			f = core.MustNew(f.Name, f.Q, []core.Literal{core.VarEq(u, "val", v, "val")}, []core.Literal{core.VarEq(u, "a0", v, "a0")})
		}
		rules = append(rules, f)
	}
	return core.MustNewSet(rules...)
}

// Fig8Skew reproduces the Appendix skew experiment: disVal and variants on
// synthetic graphs of growing degree skew, n = 16, with replicate-and-split
// active in disVal only.
func Fig8Skew(c Config, skews []float64) Table {
	c = c.Defaults()
	if len(skews) == 0 {
		skews = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	series := []string{"disVal", "disran", "disnop"}
	t := Table{
		Title:  "Fig 8 — time vs skew (synthetic, n=16); " + spanNote,
		XLabel: "skew",
		Series: series,
	}
	for _, sk := range skews {
		clean := gen.Synthetic(gen.SyntheticConfig{
			Nodes: c.Scale * 10, Edges: c.Scale * 20, Skew: sk, Seed: c.Seed,
		})
		set := c.Mine(clean)
		gen.Inject(clean, gen.NoiseConfig{Rate: c.NoiseRate, Seed: c.Seed + 1})
		w := NewWorkload(clean, set)
		t.Rows = append(t.Rows, sweepRow(fmt.Sprintf("%.1f", sk), w, 16, c.Seed, series, seconds))
	}
	return t
}

// SpeedupSummary derives the Exp-1 headline numbers from a Fig5VaryN
// table: the speedup of each algorithm between the smallest and largest n.
func SpeedupSummary(t Table) map[string]float64 {
	if len(t.Rows) < 2 {
		return nil
	}
	first, last := t.Rows[0], t.Rows[len(t.Rows)-1]
	out := make(map[string]float64)
	for _, s := range t.Series {
		if a, ok := first.Cells[s]; ok {
			if b, ok2 := last.Cells[s]; ok2 && b > 0 {
				out[s] = a / b
			}
		}
	}
	return out
}
