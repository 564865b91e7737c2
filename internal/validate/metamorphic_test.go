// The metamorphic harness: Vio(Σ, G) is a set with one right answer, so
// every way of computing it must produce the same bytes — at every chunk
// granularity, for N = 1…4, from the sequential, replicated, fragmented
// and multi-process engines and the BigDansing baseline, over a heap
// snapshot, a session overlay after Apply, a store-adopted mapping and
// per-fragment shards — and again over a graph whose labels were first
// used after its freeze, so its adjacency ranks them out of code order
// (lateLabels). The other axes are the engine variants, the partition
// strategy disVal and the shards are cut by, the sink a run delivers
// into (sinkMode) and, in TestMetamorphicVioUnderFaults, a seeded fault
// plan. Each case is a row of one table, run like the scheduler
// conformance suite's shapes, and compared against the string-and-map
// oracle. How a faulted run ends — outcome, census, exactly-once
// delivery, leaks — is the conformance suite's (internal/dist).
package validate_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"gfd/internal/baseline"
	"gfd/internal/core"
	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/store"
	"gfd/internal/testutil"
	"gfd/internal/validate"
)

// The test binary doubles as the distributed engine's worker executable,
// and a worker whose command line carries a fault plan (FaultCommand) runs
// behind the interposer that faults its pipes.
func TestMain(m *testing.M) {
	validate.InterposeFaults()
	dist.MaybeWorker()
	code := m.Run()
	if fxDir != "" {
		os.RemoveAll(fxDir)
	}
	os.Exit(code)
}

// withShapes adds, to a random workload's rules, the pivot shapes its
// random patterns may miss: two isomorphic components, single nodes or
// stars (the symmetric range pairs), a pattern of wildcards only (a wildcard pivot,
// whose class is every node), and a constant X (a seeded pivot).
func withShapes(set *core.Set) *core.Set {
	twins := pattern.New()
	twins.AddNode("x", "a")
	twins.AddNode("y", "a")
	stars := pattern.New() // symmetric with a star: some ranges keep no pivot
	stars.AddEdge(stars.AddNode("x", "a"), stars.AddNode("u", "b"), "e")
	stars.AddEdge(stars.AddNode("y", "a"), stars.AddNode("w", "b"), "e")
	wild := pattern.New()
	wild.AddEdge(wild.AddNode("x", pattern.Wildcard), wild.AddNode("y", pattern.Wildcard), "e")
	seeded := pattern.New()
	seeded.AddEdge(seeded.AddNode("x", "b"), seeded.AddNode("y", "c"), "f")
	return core.MustNewSet(append(set.Rules(),
		core.MustNew("mm_twins", twins, []core.Literal{core.VarEq("x", "p", "y", "p")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("mm_stars", stars, []core.Literal{core.VarEq("u", "p", "w", "p")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("mm_wild", wild, nil, []core.Literal{core.VarEq("x", "p", "y", "p")}),
		core.MustNew("mm_seeded", seeded, []core.Literal{core.Const("x", "p", "v1")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
	)...)
}

// render is a report as bytes: its violation keys in the report's own
// order, one a line. The engines return the canonical order, so an
// engine's report renders as its oracle's does once ordered by
// RuleThenIDs (canonical), which shares no code with Report.Sort.
func render(r validate.Report) string {
	var b strings.Builder
	for _, v := range r {
		b.WriteString(v.Key())
		b.WriteByte('\n')
	}
	return b.String()
}

// canonical is the oracle's report as the engines must render it.
func canonical(oracle validate.Report) string {
	return render(slices.SortedFunc(slices.Values(oracle), validate.RuleThenIDs))
}

// topologyKind builds a fresh bundle (so that nothing planned at another
// granularity is reused) over one kind of topology, holds the oracle's
// report it must reproduce, and cuts the manifest of n per-fragment shards
// of its snapshot by a strategy for the multi-process engine (nil: not a
// frozen one).
type topologyKind struct {
	name   string
	expect string
	bundle func() *validate.Bundle
	shards func(n int, s fragment.Strategy) string
}

// openShards saves s under dir and opens it, and returns the mapping with
// a function cutting the manifest of its n per-fragment shards once per n
// and strategy.
func openShards(t *testing.T, s *graph.Snapshot, dir string) (*graph.Snapshot, func(n int, s fragment.Strategy) string) {
	ctx := context.Background()
	path := filepath.Join(dir, "g.gfds")
	if err := store.Save(ctx, s, path); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.Open(ctx, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loaded.Close() })
	snap := loaded.Snapshot()
	manifests := map[string]string{}
	return snap, func(n int, s fragment.Strategy) string {
		key := fmt.Sprintf("%v%d", s, n)
		if manifests[key] == "" {
			m, err := dist.WriteShards(snap, n, s, dir, key)
			if err != nil {
				t.Fatal(err)
			}
			manifests[key] = m
		}
		return manifests[key]
	}
}

// lateLabels writes, through g's overlay, nodes and edges whose labels g
// never used before: first a fresh node label and a fresh edge label, then
// a node label and an edge label that were attribute values, whose codes
// are below the fresh ones'. Both kinds' ranks then differ from their
// codes' order, in the overlay's view and in every snapshot flattened or
// persisted from it. It returns the rules over those labels, beside a
// wildcard-edge rule whose ranges span the late edge labels' groups.
func lateLabels(g *graph.Graph) []*core.GFD {
	ov := graph.NewOverlay(g)
	z := ov.AddNode("z", graph.Attrs{"p": "v1", "q": "v0"})
	w := ov.AddNode("v1", graph.Attrs{"p": "v1", "q": "v2"})
	z2 := ov.AddNode("z", graph.Attrs{"p": "v2", "q": "v2"})
	for _, e := range []struct {
		from, to graph.NodeID
		label    string
	}{{z, w, "g"}, {z, w, "v2"}, {z2, w, "g"}, {w, 0, "v2"}, {0, z, "g"}, {1, w, "e"}, {z, 1, "f"}, {z2, 2, "v2"}, {w, z2, "e"}} {
		ov.MustAddEdge(e.from, e.to, e.label)
	}
	zw := pattern.New()
	zw.AddEdge(zw.AddNode("x", "z"), zw.AddNode("y", "v1"), "g")
	toLate := pattern.New()
	toLate.AddEdge(toLate.AddNode("x", pattern.Wildcard), toLate.AddNode("y", "v1"), pattern.Wildcard)
	fromLate := pattern.New()
	fromLate.AddEdge(fromLate.AddNode("x", "z"), fromLate.AddNode("y", pattern.Wildcard), "v2")
	return []*core.GFD{
		core.MustNew("late_zw", zw, []core.Literal{core.VarEq("x", "p", "y", "p")}, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("late_to", toLate, nil, []core.Literal{core.VarEq("x", "q", "y", "q")}),
		core.MustNew("late_from", fromLate, nil, []core.Literal{core.VarEq("x", "p", "y", "p")}),
	}
}

// randomKinds builds RandomWorkload(seed) with the pivot shapes over every
// topology kind: heap, mmap (with shards), overlay, and the three
// late-label kinds. It counts the oracle's violations into compared.
func randomKinds(t *testing.T, seed int64, compared map[string]int) []topologyKind {
	g, set := validate.RandomWorkload(seed)
	set = withShapes(set)
	want := canonical(validate.OracleVio(g, set))
	compared["violations"] += strings.Count(want, "\n")

	// The unmutated graph: heap snapshot, its persisted mapping, and
	// the mapping's per-fragment shards.
	snap, shard := openShards(t, g.Freeze(), t.TempDir())

	// The same graph after two update batches through a session: the
	// overlay's view, against the oracle of the mutated graph.
	mg, _ := validate.RandomWorkload(seed)
	sess, err := session.New(mg)
	if err != nil {
		t.Fatal(err)
	}
	id := sess.Apply(incremental.AddNode{Label: "a", Attrs: graph.Attrs{"p": "v1", "q": "v2"}})[0]
	sess.Apply(
		incremental.AddEdge{From: id, To: 0, Label: "e"},
		incremental.AddEdge{From: 1, To: id, Label: "f"},
		incremental.SetAttr{Node: 2, Attr: "p", Value: "v1"},
	)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	ov := prep.Bundle().Topo()
	if !ov.Patched() {
		t.Fatalf("seed %d: the session runs on a frozen snapshot, want an overlay view", seed)
	}
	wantMutated := canonical(validate.OracleVio(mg, set))

	// The same graph with labels first used after its freeze: the
	// overlay's view, the snapshot a compaction flattens it into, that
	// snapshot persisted and mapped, and the mapping's shards.
	lg, _ := validate.RandomWorkload(seed)
	lg.Freeze()
	lset := core.MustNewSet(append(set.Rules(), lateLabels(lg)...)...)
	wantLate := canonical(validate.OracleVio(lg.Clone(), lset))
	lateView := graph.NewOverlay(lg).Snapshot
	lateFlat := lg.Freeze()
	lateSnap, lateShard := openShards(t, lateFlat, t.TempDir())
	for _, line := range strings.Split(wantLate, "\n") {
		if strings.HasPrefix(line, "late_") {
			compared["late-label violations"]++
		}
	}
	// The axis needs ranks out of code order: the first late node's
	// edges to the second sit "g" first, in the mapping too, though
	// "v2" has the smaller code.
	var order []string
	for _, e := range lateSnap.Out(graph.NodeID(g.NumNodes())) {
		order = append(order, lateSnap.Syms().Name(lateSnap.EdgeLabel(e.Label)))
	}
	if syms := lateSnap.Syms(); syms.Lookup("v2") > syms.Lookup("g") || slices.Index(order, "g") > slices.Index(order, "v2") {
		t.Fatalf("seed %d: the late edge labels keep code order (%v): the axis is vacuous", seed, order)
	}

	return []topologyKind{
		{"heap", want, func() *validate.Bundle { return validate.NewBundle(g, set) }, nil},
		{"mmap", want, func() *validate.Bundle { return validate.NewBundleOver(snap, set, nil) }, shard},
		{"overlay", wantMutated, func() *validate.Bundle { return validate.NewBundleOver(ov, set, nil) }, nil},
		{"late-label overlay", wantLate, func() *validate.Bundle { return validate.NewBundleOver(lateView, lset, nil) }, nil},
		{"late-label compacted", wantLate, func() *validate.Bundle { return validate.NewBundleOver(lateFlat, lset, nil) }, nil},
		{"late-label mmap", wantLate, func() *validate.Bundle { return validate.NewBundleOver(lateSnap, lset, nil) }, lateShard},
	}
}

// heapKind is a fixture workload on the heap kind alone.
func heapKind(t *testing.T, name string, g *graph.Graph, set *core.Set) topologyKind {
	if set.Len() == 0 {
		t.Fatalf("%s: no rules mined", name)
	}
	return topologyKind{name, canonical(validate.OracleVio(g, set)), func() *validate.Bundle { return validate.NewBundle(g, set) }, nil}
}

// wideGroup is one pattern, a country's capital city, under 70 rules, each
// with its own constant on the country's val: one group past the 63
// members a guard tracks, which therefore pivots unseeded. Every seventh
// country's capital breaks its rule, the 64th rule's included.
func wideGroup() (*graph.Graph, *core.Set) {
	g := graph.New(0, 0)
	rules := make([]*core.GFD, 70)
	for k := range rules {
		country, city := fmt.Sprintf("country_%d", k), fmt.Sprintf("city_%d", k)
		capital := city
		if k%7 == 0 {
			capital = "city_x"
		}
		g.MustAddEdge(g.AddNode("country", graph.Attrs{"val": country}), g.AddNode("city", graph.Attrs{"val": capital}), "capital")
		q := pattern.New()
		q.AddEdge(q.AddNode("c", "country"), q.AddNode("d", "city"), "capital")
		rules[k] = core.MustNew("capital_"+fmt.Sprint(k), q, []core.Literal{core.Const("c", "val", country)},
			[]core.Literal{core.Const("d", "val", city)})
	}
	return g, core.MustNewSet(rules...)
}

// fixtureKinds are the paper's G1 with φ1, the YAGO2- and Pokec-like
// generators with their noise and the rules mined after it, which hold
// almost everywhere, the seeded KB workload, whose violations the pivot
// seeds must not lose, and the wide group, whose members past the 63rd the
// seeds must not hide.
func fixtureKinds(t *testing.T) []topologyKind {
	yago := gen.YAGO2Like(gen.DatasetConfig{Scale: 160, Seed: 11})
	gen.Inject(yago, gen.NoiseConfig{Rate: 0.05, Seed: 12})
	pokec := gen.PokecLike(gen.DatasetConfig{Scale: 120, Seed: 21})
	gen.Inject(pokec, gen.NoiseConfig{Rate: 0.03, Seed: 22})
	sg, sset := validate.SeededKB(t)
	seeded := heapKind(t, "seeded heap", sg, sset)
	if seeded.expect == "" {
		t.Fatal("the seeded KB workload has no violation")
	}
	wg, wset := wideGroup()
	if gs := validate.NewBundle(wg, wset).GroupShapes(validate.Options{}); len(gs) != 1 || len(gs[0].Rules) != 70 || gs[0].Seeds[0] != nil {
		t.Fatal("the wide group's rules no longer form one unseeded group")
	}
	return []topologyKind{
		heapKind(t, "paper G1", validate.PaperG1(), core.MustNewSet(validate.Phi1())),
		heapKind(t, "mined heap", yago, gen.MineGFDs(yago, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})),
		heapKind(t, "social heap", pokec, gen.MineGFDs(pokec, gen.MineConfig{NumRules: 6, PatternSize: 5, TwoCompFrac: 0.2, Seed: 23})),
		seeded,
		heapKind(t, "wide group heap", wg, wset),
	}
}

// faultKinds are two fixtures whose units deliver violations before a
// fault ends them: the YAGO2-like graph with its rules mined before heavy
// noise, and RandomWorkload(0)'s graph, mapped and sharded, under a rule
// nearly every edge violates, so a process that dies mid-answer has sent
// some of them already.
func faultKinds(t *testing.T) []topologyKind {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 160, Seed: 11})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.3, Seed: 12})
	dg, _ := validate.RandomWorkload(0)
	q := pattern.New()
	q.AddEdge(q.AddNode("x", pattern.Wildcard), q.AddNode("y", pattern.Wildcard), pattern.Wildcard)
	dirty := core.MustNewSet(core.MustNew("dirty", q, nil, []core.Literal{core.VarEq("x", "p", "y", "q")}))
	snap, shards := openShards(t, dg.Freeze(), t.TempDir())
	kinds := []topologyKind{
		heapKind(t, "noisy mined heap", g, set),
		{"dirty mmap", canonical(validate.OracleVio(dg, dirty)), func() *validate.Bundle { return validate.NewBundleOver(snap, dirty, nil) }, shards},
	}
	for _, k := range kinds {
		if k.expect == "" {
			t.Fatalf("the %s fixture has no violation", k.name)
		}
	}
	return kinds
}

// sinkMode is how a run's violations reach the harness: the engine's own
// collect sink, whose returned order is compared too; a callback; or a
// pipe of one-slot lanes drained on another goroutine. The last two are
// sorted after the run, so a duplicate delivery renders as an extra line.
type sinkMode int

const (
	collect sinkMode = iota
	callback
	pipe
)

var sinkModes = []sinkMode{collect, callback, pipe}

func (m sinkMode) String() string { return [...]string{"collect", "callback", "pipe"}[m] }

// drive runs an engine with lanes slots into m's sink.
func (m sinkMode) drive(ctx context.Context, lanes int, run func(validate.Sink) (*validate.Result, error)) (validate.Report, *validate.Result, error) {
	var got validate.Report
	var res *validate.Result
	var err error
	switch m {
	case collect:
		if res, err = run(nil); res != nil {
			got = res.Violations
		}
		return got, res, err
	case callback:
		res, err = run(testutil.Callback(func(v validate.Violation) {
			got = append(got, v)
		}))
	case pipe:
		p := validate.NewPipeSink(ctx, lanes, 1)
		drained := make(chan struct{})
		go func() {
			for v := range p.Out() {
				got = append(got, v)
			}
			close(drained)
		}()
		res, err = run(p)
		p.Close()
		<-drained
	}
	got.Sort()
	return got, res, err
}

// runSpec is one run of an engine: its options (N, the named variant), the
// sink mode, the strategy disVal's fragmentation and the shards are cut by,
// and the fault plan, which the goroutine slots take through InjectSlots
// and the worker processes on their command line.
type runSpec struct {
	variant  string
	opt      validate.Options
	mode     sinkMode
	strategy fragment.Strategy
	plan     *validate.FaultPlan
	command  []string // the dist workers' command line; nil runs the default
}

func (r runSpec) String() string {
	s := fmt.Sprintf("n=%d/%v/%v", r.opt.N, r.mode, r.strategy)
	if r.variant != "" {
		s = r.variant + "/" + s
	}
	if r.plan != nil {
		s += " " + r.plan.String()
	}
	return s
}

var strategies = []fragment.Strategy{fragment.Hash, fragment.Range}

// metamorphicEngine runs one engine on a bundle into a sink; shards cuts
// the manifest of the multi-process engine's per-fragment shards. The
// paper's three algorithms (detVio, repVal, disVal) and the rule scan
// detVio runs on are the ones the fixture and breadth rows run, and its
// two parallel ones run the engine variants; plan draws a fault plan for a
// run with n slots and units units that delivers violations violations,
// nil for an engine without slots to fault. The parallel engines
// keep implied rules (NoReduce): reduction preserves the violating
// entities, not the rule names a byte comparison reads.
type metamorphicEngine struct {
	name     string
	paper    bool
	variants bool
	shards   bool // runs only where the kind cuts shards
	plan     func(seed int64, n, units, violations int) *validate.FaultPlan
	run      func(ctx context.Context, b *validate.Bundle, shards func(int, fragment.Strategy) string, r runSpec, sink validate.Sink) (*validate.Result, error)
}

var metamorphicEngines = []metamorphicEngine{
	{name: "sequential", paper: true, run: func(ctx context.Context, b *validate.Bundle, _ func(int, fragment.Strategy) string, _ runSpec, sink validate.Sink) (*validate.Result, error) {
		return validate.Single(0, 1, sink, func(s validate.Sink) error { return validate.DetVioB(ctx, b, s) })
	}},
	// The rule scan detVio and the GCFD baseline share, at N workers.
	{name: "scan", paper: true, run: func(ctx context.Context, b *validate.Bundle, _ func(int, fragment.Strategy) string, r runSpec, sink validate.Sink) (*validate.Result, error) {
		return validate.Single(b.Set().Len(), r.opt.N, sink, func(s validate.Sink) error {
			return validate.ScanRules(ctx, b, b.Set().Rules(), r.opt.N, s)
		})
	}},
	{name: "repVal", paper: true, variants: true, plan: validate.FromSeed, run: func(ctx context.Context, b *validate.Bundle, _ func(int, fragment.Strategy) string, r runSpec, sink validate.Sink) (*validate.Result, error) {
		return validate.RepValB(ctx, b, r.opt, sink)
	}},
	{name: "disVal", paper: true, variants: true, plan: validate.FromSeed, run: func(ctx context.Context, b *validate.Bundle, _ func(int, fragment.Strategy) string, r runSpec, sink validate.Sink) (*validate.Result, error) {
		return validate.DisValB(ctx, b, fragment.PartitionSnapshot(b.Topo(), r.opt.N, r.strategy), r.opt, sink)
	}},
	// The relational baseline, sorted as the session sorts it: its joins
	// and label selections read the bundle's view alone.
	{name: "bigDansing", run: func(ctx context.Context, b *validate.Bundle, _ func(int, fragment.Strategy) string, r runSpec, sink validate.Sink) (*validate.Result, error) {
		return validate.Single(b.Set().Len(), r.opt.N, sink, func(s validate.Sink) error {
			return baseline.DetectJoinsB(ctx, b, baseline.Encode(b.Topo()), r.opt.N, s)
		})
	}},
	// Tight supervision: an injected 30 s pipe stall ends at heartbeat
	// starvation, not when the sleep does.
	{name: "dist", shards: true, plan: func(seed int64, n, units, _ int) *validate.FaultPlan { return validate.FromSeedProc(seed, n, units) }, run: func(ctx context.Context, b *validate.Bundle, shards func(int, fragment.Strategy) string, r runSpec, sink validate.Sink) (*validate.Result, error) {
		opt := r.opt
		opt.Dist = &validate.DistOptions{ManifestPath: shards(opt.N, r.strategy), Command: r.command, HeartbeatInterval: 50 * time.Millisecond, HandshakeTimeout: 2 * time.Second}
		return dist.DetectB(ctx, b, opt, sink)
	}},
}

// check runs e on a fresh bundle of k under r and fails unless its report
// renders as the oracle's. It returns the run's result.
func check(t *testing.T, e metamorphicEngine, k topologyKind, r runSpec) *validate.Result {
	t.Helper()
	ctx := context.Background()
	b := k.bundle()
	got, res, err := r.mode.drive(ctx, r.opt.N, func(s validate.Sink) (*validate.Result, error) { return e.run(ctx, b, k.shards, r, s) })
	if err != nil {
		t.Fatalf("%s on %s, %v: %v", e.name, k.name, r, err)
	}
	if g := render(got); g != k.expect {
		t.Fatalf("%s on %s, %v: %d violations, the oracle %d:\n%s\nwant\n%s",
			e.name, k.name, r, len(got), strings.Count(k.expect, "\n"), g, k.expect)
	}
	return res
}

// checkAll runs every engine (or the paper's three) on k for N = 1…4 (one
// slot for the sequential engine), the partition strategy alternating
// with N, and then, if asked, every variant of the paper's parallel ones.
func checkAll(t *testing.T, k topologyKind, paperOnly, variants bool, compared map[string]int) {
	t.Helper()
	for _, e := range metamorphicEngines {
		if paperOnly && !e.paper || e.shards && k.shards == nil {
			continue
		}
		for n := 1; n <= 4; n++ {
			check(t, e, k, runSpec{opt: validate.Options{N: n, NoReduce: true}, strategy: strategies[n%2]})
			compared[e.name+"/"+k.name]++
			if e.name == "sequential" {
				break // one slot whatever n says
			}
		}
		if variants && e.variants {
			for name, opt := range validate.AllVariants() {
				check(t, e, k, runSpec{variant: name, opt: opt, strategy: strategies[opt.N%2]})
				compared[e.name+" variants/"+k.name]++
			}
		}
	}
}

func TestMetamorphicVio(t *testing.T) {
	granularities := []struct {
		name             string
		perSlot, members int
	}{
		{"default", 0, 0},
		{"one chunk a group", 1, 1 << 30},
		{"one member a chunk", 64, 1},
		{"three members a chunk", 2, 3},
	}
	compared := map[string]int{}
	for seed := int64(0); seed < 8; seed++ {
		kinds := randomKinds(t, seed, compared)
		for _, gr := range granularities {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, gr.name), func(t *testing.T) {
				if gr.perSlot > 0 {
					validate.SetGranularity(t, gr.perSlot, gr.members)
				}
				for i, k := range kinds {
					// Variants at the default granularity, on heap, mmap and overlay.
					checkAll(t, k, false, gr.perSlot == 0 && i < 3, compared)
				}
			})
		}
	}

	// The fixtures, and breadth: further random workloads, drawn afresh
	// every run as quick.Check draws them, for the paper's three
	// algorithms and their variants.
	for _, k := range fixtureKinds(t) {
		t.Run(k.name, func(t *testing.T) { checkAll(t, k, true, true, compared) })
		compared["fixture violations"] += strings.Count(k.expect, "\n")
	}
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for i := range 40 {
		seed := int64(rng.Uint32())
		t.Run(fmt.Sprintf("breadth %d", i), func(t *testing.T) {
			t.Logf("RandomWorkload seed %d", seed) // printed if the subtest fails
			g, set := validate.RandomWorkload(seed)
			set = withShapes(set)
			k := topologyKind{"breadth heap", canonical(validate.OracleVio(g, set)), func() *validate.Bundle { return validate.NewBundle(g, set) }, nil}
			checkAll(t, k, true, true, compared)
		})
	}

	t.Logf("comparisons: %v", compared)
	if compared["violations"] == 0 || compared["fixture violations"] == 0 {
		t.Fatal("no workload has a violation; the harness compares empty sets")
	}
	if compared["late-label violations"] == 0 {
		t.Fatal("no late-label rule is violated; the axis compares empty sets")
	}
	for _, k := range []string{"dist/mmap", "disVal/overlay", "repVal/heap", "bigDansing/overlay", "dist/late-label mmap", "repVal/late-label overlay", "disVal variants/mmap", "repVal variants/paper G1", "scan/paper G1"} {
		if compared[k] == 0 {
			t.Fatalf("%s was never compared", k)
		}
	}
}

// TestMetamorphicVioUnderFaults runs the parallel engines under seeded
// fault plans — goroutine-slot kills, delays and emission panics for
// repVal and disVal (validate.FromSeed, through InjectSlots), process
// kills, pipe stalls and torn frames for dist (validate.FromSeedProc, on
// the workers' command line) — at one class member a chunk, on every kind
// each engine runs on and on two fixtures whose units deliver violations
// before a fault ends them. The sink mode and the partition
// strategy rotate over the rows. Each row runs fault-free first (which
// sizes the plan), then under the plan: the faulted report must render as
// the oracle's, with a complete census. A run whose fatal fault never
// fired is not a comparison, and every (engine, kind) cell must count a
// fired run.
func TestMetamorphicVioUnderFaults(t *testing.T) {
	before := runtime.NumGoroutine()
	validate.SetGranularity(t, 64, 1)
	compared, fired := map[string]int{}, map[string]int{}
	ran := map[string]int{} // engine, sink mode and strategy of the comparisons
	var kinds []topologyKind
	for seed := int64(0); seed < 8; seed++ {
		kinds = append(kinds, randomKinds(t, seed, map[string]int{})...)
	}
	fixtures := faultKinds(t)
	kinds = append(kinds, fixtures...)
	row := int64(0)
	for ki, k := range kinds {
		plans := 1 // the eight random workloads give each cell eight plans an N
		if ki >= len(kinds)-len(fixtures) {
			plans = 4
		}
		for _, e := range metamorphicEngines {
			if e.plan == nil || e.shards && k.shards == nil {
				continue
			}
			// A faulted fleet costs processes and, when the plan stalls a
			// handshake, the 2 s handshake timeout: dist runs at N = 4 only.
			ns := []int{2, 4}
			if e.shards {
				ns = ns[1:]
			}
			for i := range plans * len(ns) {
				row++
				r := runSpec{opt: validate.Options{N: ns[i%len(ns)], NoReduce: true}, mode: sinkModes[row%3], strategy: strategies[row/3%2]}
				t.Run(fmt.Sprintf("row=%d/%s/%s/%v", row, k.name, e.name, r), func(t *testing.T) {
					res := check(t, e, k, r) // its listing is the oracle's, so it delivered that many
					r.plan = e.plan(row, r.opt.N, res.Units, strings.Count(k.expect, "\n"))
					if e.shards {
						r.command = validate.FaultCommand(t, r.plan)
					} else {
						validate.InjectSlots(t, r.plan)
					}
					c := check(t, e, k, r).Completeness
					if !c.Complete() || c.Failed != 0 {
						t.Fatalf("%s on %s, %v: census not complete: %+v", e.name, k.name, r, c)
					}
					cell := e.name + "/" + k.name
					switch {
					case c.Retries+c.WorkerDeaths > 0:
						fired[cell]++
					case r.plan.Fatal() > 0:
						return // the workload was too small for the plan's ordinals
					}
					compared[cell]++
					ran[fmt.Sprintf("%s/%v/%v", e.name, r.mode, r.strategy)]++
				})
			}
		}
	}
	t.Logf("faulted comparisons: %v", compared)
	t.Logf("of which a fault fired: %v", fired)
	for cell := range compared {
		if fired[cell] == 0 {
			t.Errorf("%s: no fault fired in %d comparisons", cell, compared[cell])
		}
	}
	if len(compared) != 2*8+3 {
		t.Errorf("%d (engine, kind) cells compared, want repVal and disVal on eight kinds and dist on three", len(compared))
	}
	if len(ran) != 3*len(sinkModes)*len(strategies) {
		t.Errorf("%d (engine, sink mode, strategy) combinations compared, want every one: %v", len(ran), ran)
	}
	validate.WaitGoroutines(t, before)
}
