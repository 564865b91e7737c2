package session_test

import (
	"context"
	"testing"

	"gfd/internal/baseline"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// mustOpen opens a session over g, failing the test on error — test
// graphs are constructed, never nil.
func mustOpen(t testing.TB, g *graph.Graph) *session.Session {
	t.Helper()
	sess, err := session.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// minedWorkload builds a noisy random graph plus mined rules, seeded;
// seeds that mine nothing fall through to nearby ones so every caller
// gets a non-empty set deterministically.
func minedWorkload(t *testing.T, seed int64) (*graph.Graph, *core.Set) {
	t.Helper()
	for off := int64(0); off < 5; off++ {
		s := seed + off*101
		g := gen.Synthetic(gen.SyntheticConfig{Nodes: 300, Edges: 700, Skew: 0.5, Seed: s})
		set := gen.MineGFDs(g, gen.MineConfig{NumRules: 5, PatternSize: 4, TwoCompFrac: 0.4, Seed: s + 1})
		if set.Len() == 0 {
			continue
		}
		gen.Inject(g, gen.NoiseConfig{Rate: 0.05, Seed: s + 2})
		return g, set
	}
	t.Fatalf("no rules mined near seed %d", seed)
	return nil, nil
}

// capitalWorkload is the paper's two-capitals example: deterministic
// violations for the small-scale lifecycle tests.
func capitalWorkload() (*graph.Graph, *core.Set, graph.NodeID) {
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	z := q.AddNode("z", "city")
	q.AddEdge(x, y, "capital")
	q.AddEdge(x, z, "capital")
	phi := core.MustNew("one_capital", q, nil, []core.Literal{core.VarEq("y", "val", "z", "val")})

	g := graph.New(8, 8)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	canberra := g.AddNode("city", graph.Attrs{"val": "Canberra"})
	melbourne := g.AddNode("city", graph.Attrs{"val": "Melbourne"})
	g.MustAddEdge(au, canberra, "capital")
	g.MustAddEdge(au, melbourne, "capital")
	return g, core.MustNewSet(phi), melbourne
}

// TestDetectMatchesFreeFunctions is the differential pin of the session
// API: reused Prepared.Detect results must equal fresh free-function
// calls across random graphs, all engines, and all Options variants —
// and repeating each Detect must return the same set (cached variant
// state does not drift).
func TestDetectMatchesFreeFunctions(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{1, 7, 23} {
		g, set := minedWorkload(t, seed)
		// Mining may have frozen the pre-noise graph; count builds from
		// the session's preparation on.
		base := g.SnapshotBuilds()
		prep, err := mustOpen(t, g).Prepare(set)
		if err != nil {
			t.Fatal(err)
		}

		wantSeq := coldDetVio(t, g, set)
		res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Violations.Equal(wantSeq) {
			t.Errorf("seed %d: sequential Detect diverged from DetVio", seed)
		}

		variants := map[string]validate.Options{
			"default":  {N: 3},
			"random":   {N: 3, RandomAssign: true, Seed: seed},
			"nop":      {N: 3, NoOptimize: true},
			"noreduce": {N: 3, NoReduce: true},
			"split":    {N: 3, SplitThreshold: 8, NoReduce: true},
			"nosplit":  {N: 2, SplitThreshold: -1},
		}
		for name, opt := range variants {
			repOpt := opt
			repOpt.Engine = validate.EngineReplicated
			want := coldRepVal(t, g, set, opt)
			for round := 0; round < 2; round++ {
				got, err := prep.Detect(ctx, repOpt)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Violations.Equal(want.Violations) {
					t.Errorf("seed %d: repVal[%s] round %d diverged (%d vs %d violations)",
						seed, name, round, len(got.Violations), len(want.Violations))
				}
			}

			disOpt := opt
			disOpt.Engine = validate.EngineFragmented
			frag := fragment.Partition(g, max(opt.N, 1), fragment.Hash)
			disOpt.Frag = frag
			wantDis := coldDisVal(t, g, frag, set, opt)
			got, err := prep.Detect(ctx, disOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Violations.Equal(wantDis.Violations) {
				t.Errorf("seed %d: disVal[%s] diverged", seed, name)
			}
			// And with the session-cached fragmentation (no explicit Frag):
			// hash partitioning is deterministic, so results agree too.
			disOpt.Frag = nil
			got, err = prep.Detect(ctx, disOpt)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Violations.Equal(wantDis.Violations) {
				t.Errorf("seed %d: disVal[%s] with cached fragmentation diverged", seed, name)
			}
		}

		// The whole battery — session rounds plus every fresh free-function
		// call — shares the graph's single frozen snapshot.
		if builds := g.SnapshotBuilds() - base; builds != 1 {
			t.Errorf("seed %d: %d snapshot builds across battery, want 1", seed, builds)
		}
	}
}

// TestBaselineEnginesMatchBaselinePackage pins EngineGCFD and
// EngineBigDansing dispatch to the baseline package's own entry points.
func TestBaselineEnginesMatchBaselinePackage(t *testing.T) {
	ctx := context.Background()
	g, set := minedWorkload(t, 11)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}

	// The baselines' own entry points, over a bundle of their own.
	b := validate.NewBundle(g, set)
	rules, dropped := baseline.ConvertSet(set)
	wantG, err := validate.Single(len(rules), 1, nil, func(s validate.Sink) error {
		return baseline.DetectB(ctx, b, rules, 1, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineGCFD})
	if err != nil {
		t.Fatal(err)
	}
	if !gotG.Violations.Equal(wantG.Violations) {
		t.Error("EngineGCFD diverged from baseline.DetectB")
	}
	if gotG.Rules != set.Len()-dropped {
		t.Errorf("EngineGCFD rules = %d, want %d expressible", gotG.Rules, set.Len()-dropped)
	}

	wantB, err := validate.Single(set.Len(), 4, nil, func(s validate.Sink) error {
		return baseline.DetectJoinsB(ctx, b, baseline.Encode(g.Freeze()), 4, s)
	})
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineBigDansing, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !gotB.Violations.Equal(wantB.Violations) {
		t.Error("EngineBigDansing diverged from baseline.DetectJoinsB")
	}
}

// TestMutationBetweenDetectsRefreezes: a Detect after graph mutation must
// re-prepare (exactly one fresh freeze) and agree with a fresh validation
// of the mutated graph.
func TestMutationBetweenDetectsRefreezes(t *testing.T) {
	ctx := context.Background()
	g, set, melbourne := capitalWorkload()
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Fatalf("pre-mutation violations = %d, want 2", len(res.Violations))
	}
	if builds := g.SnapshotBuilds(); builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}

	// Repair the inconsistency; the prepared state is now stale.
	g.SetAttr(melbourne, "val", "Canberra")
	for round := 0; round < 3; round++ {
		res, err = prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Fatalf("post-repair round %d: violations = %d, want 0", round, len(res.Violations))
		}
	}
	if left := coldDetVio(t, g, set); len(left) != 0 {
		t.Errorf("oracle disagrees: graph should satisfy the set, %d violations", len(left))
	}
	// One re-freeze for the new version, not one per round.
	if builds := g.SnapshotBuilds(); builds != 2 {
		t.Errorf("builds = %d after mutation + 3 rounds, want 2", builds)
	}

	// Mutation that introduces new labels/values re-lowers correctly.
	us := g.AddNode("country", graph.Attrs{"val": "US"})
	dc := g.AddNode("city", graph.Attrs{"val": "DC"})
	nyc := g.AddNode("city", graph.Attrs{"val": "NYC"})
	g.MustAddEdge(us, dc, "capital")
	g.MustAddEdge(us, nyc, "capital")
	res, err = prep.Detect(ctx, validate.Options{Engine: validate.EngineReplicated, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Errorf("post-insert violations = %d, want 2", len(res.Violations))
	}
	if !res.Violations.Equal(coldDetVio(t, g, set)) {
		t.Error("post-insert session result diverged from fresh DetVio")
	}
}

// TestStreamMatchesDetect: streaming delivers exactly the violation set
// Detect collects, for each engine.
func TestStreamMatchesDetect(t *testing.T) {
	ctx := context.Background()
	g, set := minedWorkload(t, 5)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []validate.Engine{
		validate.EngineSequential,
		validate.EngineReplicated,
		validate.EngineFragmented,
		validate.EngineGCFD,
		validate.EngineBigDansing,
	} {
		opt := validate.Options{Engine: engine, N: 3}
		want, err := prep.Detect(ctx, opt)
		if err != nil {
			t.Fatal(err)
		}
		var got validate.Report
		if err := stream(ctx, prep, opt, func(v validate.Violation) bool {
			got = append(got, v)
			return true
		}); err != nil {
			t.Fatalf("%v: stream error: %v", engine, err)
		}
		if !got.Equal(want.Violations) {
			t.Errorf("%v: stream delivered %d violations, Detect %d", engine, len(got), len(want.Violations))
		}
	}
}

// TestStreamEarlyStop: a yield returning false stops detection without an
// error, for the parallel engine too.
func TestStreamEarlyStop(t *testing.T) {
	ctx := context.Background()
	g, set, _ := capitalWorkload() // deterministic: exactly 2 violations
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []validate.Engine{validate.EngineSequential, validate.EngineReplicated} {
		seen := 0
		if err := stream(ctx, prep, validate.Options{Engine: engine, N: 3}, func(validate.Violation) bool {
			seen++
			return false
		}); err != nil {
			t.Fatalf("%v: early stop returned error %v", engine, err)
		}
		if seen != 1 {
			t.Errorf("%v: yield called %d times after returning false", engine, seen)
		}
	}
}

// TestPrepareNilSet: the one Prepare error path.
func TestPrepareNilSet(t *testing.T) {
	g, _, _ := capitalWorkload()
	if _, err := mustOpen(t, g).Prepare(nil); err == nil {
		t.Error("Prepare(nil) must error")
	}
}

// TestEmptySet: an empty rule set prepares and detects cleanly.
func TestEmptySet(t *testing.T) {
	g, _, _ := capitalWorkload()
	prep, err := mustOpen(t, g).Prepare(core.MustNewSet())
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []validate.Engine{validate.EngineSequential, validate.EngineReplicated, validate.EngineFragmented} {
		res, err := prep.Detect(context.Background(), validate.Options{Engine: engine, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: violations on empty set", engine)
		}
	}
}

// TestIncrementalIntegration: detectors built through the session share
// one live overlay while mutations flow through Apply, updates
// invalidate the session's prepared sets, and both paths agree.
func TestIncrementalIntegration(t *testing.T) {
	ctx := context.Background()
	g, set, melbourne := capitalWorkload()
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := prep.Detect(ctx, validate.Options{}); len(res.Violations) != 2 {
		t.Fatalf("baseline violations = %d, want 2", len(res.Violations))
	}

	det := sess.Incremental(set)
	if det.Len() != 2 {
		t.Fatalf("incremental initial violations = %d, want 2", det.Len())
	}
	// Repair through the detector: the graph version bumps, so the
	// session's prepared set re-freezes on its next Detect.
	det.Apply(incremental.SetAttr{Node: melbourne, Attr: "val", Value: "Canberra"})
	if det.Len() != 0 {
		t.Errorf("incremental post-repair violations = %d, want 0", det.Len())
	}
	res, err := prep.Detect(ctx, validate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("session post-repair violations = %d, want 0", len(res.Violations))
	}

	// A second detector reuses the maintained overlay while it is synced.
	det2 := sess.Incremental(set)
	if det2.Overlay() != det.Overlay() {
		t.Error("synced session detector must reuse the maintained overlay")
	}
	// A direct mutation of the sealed graph writes through the same
	// overlay: a new detector shares it, an older one is desynced until
	// its next Apply sweeps, and both agree with the batch path.
	g.SetAttr(melbourne, "val", "Melbourne")
	det3 := sess.Incremental(set)
	if det3.Overlay() != det2.Overlay() || det2.Synced() {
		t.Error("a direct mutation must write through the shared overlay and desync the detectors that did not make it")
	}
	if det3.Len() != 2 {
		t.Errorf("new detector violations = %d, want 2", det3.Len())
	}
	if det2.Apply(); det2.Len() != 2 || !det2.Synced() {
		t.Errorf("swept detector violations = %d (synced %v), want 2", det2.Len(), det2.Synced())
	}
	res, err = prep.Detect(ctx, validate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 2 {
		t.Errorf("session post-unrepair violations = %d, want 2", len(res.Violations))
	}
}

// stream drives the pull iterator with a callback: yield receives each
// violation and returning false breaks out of the range.
func stream(ctx context.Context, p *session.Prepared, opt validate.Options, yield func(validate.Violation) bool) error {
	for v, err := range p.Violations(ctx, opt) {
		if err != nil {
			return err
		}
		if !yield(v) {
			return nil
		}
	}
	return nil
}

// The cold oracles: each call compiles a throwaway bundle, the way a
// caller without a session would, so a reused Prepared is compared against
// state it cannot have shared.

func coldDetVio(t testing.TB, g *graph.Graph, set *core.Set) validate.Report {
	t.Helper()
	sink := validate.NewCollectSink(1)
	if err := validate.DetVioB(context.Background(), validate.NewBundle(g, set), sink); err != nil {
		t.Fatal(err)
	}
	out := sink.Report()
	out.Sort()
	return out
}

func coldRepVal(t testing.TB, g *graph.Graph, set *core.Set, opt validate.Options) *validate.Result {
	t.Helper()
	res, err := validate.RepValB(context.Background(), validate.NewBundle(g, set), opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func coldDisVal(t testing.TB, g *graph.Graph, frag *fragment.Fragmentation, set *core.Set, opt validate.Options) *validate.Result {
	t.Helper()
	res, err := validate.DisValB(context.Background(), validate.NewBundle(g, set), frag, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
