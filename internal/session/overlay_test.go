// Tests for the session's delta-overlay update lifecycle: Apply folds
// small mutations into a maintained overlay, prepared bundles follow
// without re-freezing (the Graph.SnapshotBuilds probe), and compaction
// kicks in once the delta outgrows the base.
package session_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"sync"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// TestApplySweepNeverRefreezes is the acceptance probe: a sweep of update
// batches applied through Session.Apply, with Detect rounds after every
// batch, must build exactly one snapshot (the initial Prepare) while
// agreeing with a cold re-frozen session on a clone after every batch.
func TestApplySweepNeverRefreezes(t *testing.T) {
	ctx := context.Background()
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 50, Seed: 8})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 4, PatternSize: 3, TwoCompFrac: 0.3, Seed: 9})
	if set.Len() == 0 {
		t.Skip("no rules mined")
	}
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineReplicated, N: 3}); err != nil {
		t.Fatal(err)
	}
	if got := g.SnapshotBuilds(); got != 1 {
		t.Fatalf("prepare + first detect built %d snapshots, want 1", got)
	}

	labels := g.Labels()
	rng := rand.New(rand.NewSource(10))
	for batch := 0; batch < 5; batch++ {
		var ups []incremental.Update
		ups = append(ups,
			incremental.AddNode{Label: labels[rng.Intn(len(labels))], Attrs: graph.Attrs{"val": fmt.Sprintf("u%d", batch)}},
			incremental.SetAttr{Node: graph.NodeID(rng.Intn(g.NumNodes())), Attr: "val", Value: "zap"},
		)
		from := graph.NodeID(rng.Intn(g.NumNodes()))
		to := graph.NodeID(rng.Intn(g.NumNodes()))
		if from != to {
			ups = append(ups, incremental.AddEdge{From: from, To: to, Label: "related_to"})
		}
		sess.Apply(ups...)
		for _, engine := range []validate.Engine{validate.EngineSequential, validate.EngineReplicated, validate.EngineFragmented} {
			res, err := prep.Detect(ctx, validate.Options{Engine: engine, N: 3})
			if err != nil {
				t.Fatal(err)
			}
			// Cold reference: fresh session over a clone re-freezes and must
			// agree with the overlay-backed warm path.
			refPrep, err := mustOpen(t, g.Clone()).Prepare(set)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := refPrep.Detect(ctx, validate.Options{Engine: engine, N: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) != len(ref.Violations) {
				t.Fatalf("batch %d %v: overlay path found %d violations, re-freeze %d",
					batch, engine, len(res.Violations), len(ref.Violations))
			}
			for i := range res.Violations {
				if res.Violations[i].Key() != ref.Violations[i].Key() {
					t.Fatalf("batch %d %v: violation %d differs: %s vs %s", batch, engine, i,
						res.Violations[i].Key(), ref.Violations[i].Key())
				}
			}
		}
	}
	if got := g.SnapshotBuilds(); got != 1 {
		t.Fatalf("update sweep built %d snapshots, want 1 (zero rebuilds after the initial freeze)", got)
	}

	// A mutation bypassing the session writes through the same overlay,
	// since Apply sealed the graph: the next Detect runs on the patched
	// view, builds nothing, and agrees with a cold re-freeze of a clone.
	g.SetAttr(0, "val", "direct")
	res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	refPrep, err := mustOpen(t, g.Clone()).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refPrep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(ref.Violations) {
		t.Fatalf("after a direct mutation: overlay path found %d violations, re-freeze %d", len(res.Violations), len(ref.Violations))
	}
	if got := g.SnapshotBuilds(); got != 1 {
		t.Fatalf("a direct mutation of the sealed graph built %d snapshots, want 1 in all", got)
	}
}

// TestApplyCompactsPastFraction pins the compaction policy: a sustained
// update stream whose cumulative delta repeatedly crosses the size
// fraction compacts — the freeze count grows — but far more slowly than
// the batch count, because each compaction folds the patches into a
// larger base (amortized O(|G|) per Ω(|G|) updates).
func TestApplyCompactsPastFraction(t *testing.T) {
	ctx := context.Background()
	_, set, _ := capitalWorkload() // only the rule set; the graph is built below
	g := graph.New(64, 64)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": "Canberra"}), "capital")
	for i := 0; i < 40; i++ {
		g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("c%d", i)}), "twin")
	}
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	builds := g.SnapshotBuilds()
	const batches = 30
	for i := 0; i < batches; i++ {
		sess.Apply(incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": "X"}})
	}
	res, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("disconnected inserts created %d violations, want 0", len(res.Violations))
	}
	got := g.SnapshotBuilds()
	if got == builds {
		t.Fatal("delta far past the threshold never compacted")
	}
	if extra := got - builds; extra > batches/4 {
		t.Fatalf("%d compactions for %d batches — compaction is not amortizing", extra, batches)
	}
}

// TestDetectorRecoversFromSharedOverlayMutations pins the stale-detector
// recovery path: mutations that reached the shared overlay through
// Session.Apply (not the detector's own Apply) must be folded in by the
// detector's next Apply with a full sweep — stamping the new version
// while missing those violations would corrupt the maintained report
// behind a true Synced().
func TestDetectorRecoversFromSharedOverlayMutations(t *testing.T) {
	g, set, melbourne := capitalWorkload()
	sess := mustOpen(t, g)
	det := sess.Incremental(set)
	if det.Len() != 2 {
		t.Fatalf("initial detector violations = %d, want 2", det.Len())
	}
	// Repair through the session: the detector does not see this batch.
	sess.Apply(incremental.SetAttr{Node: melbourne, Attr: "val", Value: "Canberra"})
	if det.Synced() {
		t.Fatal("detector must report desynced after a session-side Apply")
	}
	// An unrelated update through the detector must recover the missed
	// repair, not just stamp the version.
	det.Apply(incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": "Perth"}})
	if !det.Synced() {
		t.Fatal("detector must be synced after its own Apply")
	}
	if det.Len() != 0 {
		t.Fatalf("detector missed the session-side repair: %d violations, want 0", det.Len())
	}
	// And the reverse: a session-side break the detector folds in.
	sess.Apply(incremental.SetAttr{Node: melbourne, Attr: "val", Value: "Melbourne"})
	det.Apply(incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": "Hobart"}})
	if det.Len() != 2 {
		t.Fatalf("detector missed the session-side break: %d violations, want 2", det.Len())
	}
}

// TestConcurrentDetectAcrossPreparedSetsOverOverlay covers the documented
// concurrency contract on the overlay path: after an Apply, Detect calls
// from several Prepared rule sets may run concurrently — their bundle
// rebuilds intern rule names into the one live symbol table, which must
// be safe against each other and against compiled readers (exercised
// under -race in CI).
func TestConcurrentDetectAcrossPreparedSetsOverOverlay(t *testing.T) {
	ctx := context.Background()
	g, setA, melbourne := capitalWorkload()
	// A second rule set over the same graph with distinct names to intern.
	q := pattern.New()
	x := q.AddNode("x", "country")
	y := q.AddNode("y", "city")
	q.AddEdge(x, y, "capital")
	setB := core.MustNewSet(core.MustNew("cap_named", q, nil,
		[]core.Literal{core.Const("y", "val", "Canberra")}))

	sess := mustOpen(t, g)
	pa, err := sess.Prepare(setA)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sess.Prepare(setB)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		sess.Apply(incremental.SetAttr{Node: melbourne, Attr: "val", Value: fmt.Sprintf("M%d", round)})
		var wg sync.WaitGroup
		for _, p := range []*session.Prepared{pa, pb} {
			wg.Add(1)
			go func(p *session.Prepared) {
				defer wg.Done()
				if _, err := p.Detect(ctx, validate.Options{Engine: validate.EngineReplicated, N: 2}); err != nil {
					t.Error(err)
				}
			}(p)
		}
		wg.Wait()
	}
}

// TestSessionFollowsDetectorCompaction: after a detector-side compaction
// the session's prepared bundles run on the graph's new live overlay (or
// its flat base), so post-compaction Detect rounds stay on the no-freeze
// path instead of paying a full re-freeze per update batch.
func TestSessionFollowsDetectorCompaction(t *testing.T) {
	ctx := context.Background()
	_, set, _ := capitalWorkload() // rule set only
	g := graph.New(64, 64)
	au := g.AddNode("country", graph.Attrs{"val": "AU"})
	g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": "Canberra"}), "capital")
	for i := 0; i < 20; i++ {
		g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("c%d", i)}), "twin")
	}
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	det := sess.Incremental(set)
	const batches = 30
	for i := 0; i < batches; i++ {
		det.Apply(incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": "X"}})
		if _, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineSequential}); err != nil {
			t.Fatal(err)
		}
	}
	// Freezes may grow only with compactions (amortized), never once per
	// post-compaction Detect round.
	if builds := g.SnapshotBuilds(); builds-1 > batches/4 {
		t.Fatalf("%d snapshot builds over %d detector batches — session decoupled from the compacted overlay", builds, batches)
	}
	if det.Len() != 0 {
		t.Fatalf("disconnected inserts created %d violations, want 0", det.Len())
	}
}

// TestInterleavedSessionAndDetectorApplies pins the one live overlay per
// graph: Session.Apply and the Apply of every detector over the graph —
// from the session or built by incremental.New beside it — write through
// the same overlay. One update stream dealt round-robin to the writers
// builds at most one snapshot more than with a single detector, however
// many writers share it, and each detector's report equals the oracle's
// after each of its Applies. The single detector's count is capped on its
// own: a batch adds at most three to the delta (a node, its attribute, an
// edge or attribute write) and the base never drops below 83, so a
// compaction takes at least 7 batches and 80 batches build at most 80/7
// snapshots plus a first freeze. A regression that re-freezes every
// batch for every writer cannot pass by inflating all cases together.
func TestInterleavedSessionAndDetectorApplies(t *testing.T) {
	_, set, _ := capitalWorkload() // rule set only
	// run deals 80 single-node applies over the 42-node capital fixture,
	// every eighth one making a city a second capital and a later one
	// repairing it, and returns the snapshot builds after the first freeze.
	run := func(t *testing.T, detectors func(*session.Session) []*incremental.Detector) int {
		t.Helper()
		g := graph.New(64, 64)
		au := g.AddNode("country", graph.Attrs{"val": "AU"})
		g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": "Canberra"}), "capital")
		for i := 0; i < 40; i++ {
			g.MustAddEdge(au, g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("c%d", i)}), "twin")
		}
		twin := g.Clone()
		sess := mustOpen(t, g)
		dets := detectors(sess)
		writers := []func(...incremental.Update) []graph.NodeID{sess.Apply}
		for _, d := range dets {
			writers = append(writers, d.Apply)
		}
		builds := g.SnapshotBuilds()
		var last, capital graph.NodeID
		for i := 0; i < 80; i++ {
			ups := []incremental.Update{incremental.AddNode{Label: "city", Attrs: graph.Attrs{"val": fmt.Sprint(i % 3)}}}
			switch i % 8 {
			case 5:
				capital = last
				ups = append(ups, incremental.AddEdge{From: au, To: capital, Label: "capital"})
			case 7:
				ups = append(ups, incremental.SetAttr{Node: capital, Attr: "val", Value: "Canberra"})
			}
			w := i % len(writers)
			ids := writers[w](ups...)
			mirror(t, twin, ups, ids)
			last = ids[0]
			if w == 0 {
				continue
			}
			if got, want := dets[w-1].Report(), oracleReport(twin, set); !got.Equal(want) {
				t.Fatalf("update %d: detector %d reports %d violations, oracle %d", i, w-1, len(got), len(want))
			}
		}
		return g.SnapshotBuilds() - builds
	}
	one := func(s *session.Session) []*incremental.Detector {
		return []*incremental.Detector{s.Incremental(set)}
	}
	for _, tc := range []struct {
		name      string
		detectors func(*session.Session) []*incremental.Detector
	}{
		{"one detector", one},
		{"two detectors", func(s *session.Session) []*incremental.Detector {
			return []*incremental.Detector{s.Incremental(set), s.Incremental(set)}
		}},
		{"detector beside the session", func(s *session.Session) []*incremental.Detector {
			return []*incremental.Detector{incremental.New(s.Graph(), set)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := run(t, one)
			if base > 80/7+1 {
				t.Fatalf("%d snapshot builds with one detector over 80 batches, want at most %d", base, 80/7+1)
			}
			if builds := run(t, tc.detectors); builds > base+1 {
				t.Fatalf("%d snapshot builds, one detector needs %d: the writers are desyncing each other", builds, base)
			}
		})
	}
}

// TestSeededPivotsReadTheOverlay: a rule with constant X seeds its units
// from the nodes that carry the constant, so the filter must read the
// overlay's patched view, not the frozen base. One SetAttr moves a country
// into the seeded constant, another moves one out of it, a third sets a
// constant the base never interned; after each Apply repVal and disVal over
// the overlay must report exactly what the sequential engine reports.
func TestSeededPivotsReadTheOverlay(t *testing.T) {
	ctx := context.Background()
	set, err := core.ParseRules(strings.NewReader(`
gfd seeded {
  node x0 person
  node x1 city
  node x2 country
  node x3 city
  edge x0 born_in x1
  edge x1 located_in x2
  edge x2 capital x3
  when x2.val = "country_1"
  then x3.val = "city_1"
}

gfd seeded_new {
  node x0 person
  node x1 city
  node x2 country
  node x3 city
  edge x0 born_in x1
  edge x1 located_in x2
  edge x2 capital x3
  when x2.val = "country_new"
  then x3.val = "city_1"
}
`))
	if err != nil {
		t.Fatal(err)
	}
	// Enough clean chains that three SetAttrs stay far below the
	// compaction fraction and every round runs on the overlay.
	g := graph.New(0, 0)
	var countries []graph.NodeID
	for i := 0; i < 30; i++ {
		country := "country_5"
		if i == 0 {
			country = "country_1" // the only seeded node of the base
		}
		p := g.AddNode("person", graph.Attrs{"val": "person_0"})
		c := g.AddNode("city", graph.Attrs{"val": "city_5"})
		k := g.AddNode("country", graph.Attrs{"val": country})
		x := g.AddNode("city", graph.Attrs{"val": "city_7"})
		g.MustAddEdge(p, c, "born_in")
		g.MustAddEdge(c, k, "located_in")
		g.MustAddEdge(k, x, "capital")
		countries = append(countries, k)
	}
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	detect := func(engine validate.Engine) validate.Report {
		t.Helper()
		res, err := prep.Detect(ctx, validate.Options{Engine: engine, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Violations
	}
	for step, tc := range []struct {
		up   incremental.SetAttr
		vios int
	}{
		{incremental.SetAttr{Node: countries[1], Attr: "val", Value: "country_1"}, 2},   // into the constant
		{incremental.SetAttr{Node: countries[0], Attr: "val", Value: "country_5"}, 1},   // out of it
		{incremental.SetAttr{Node: countries[2], Attr: "val", Value: "country_new"}, 2}, // never interned by the base
	} {
		sess.Apply(tc.up)
		if !prep.Bundle().Topo().Patched() {
			t.Fatalf("step %d: the bundle runs on a frozen snapshot, want the session overlay", step)
		}
		want := detect(validate.EngineSequential)
		if len(want) != tc.vios {
			t.Fatalf("step %d: sequential engine reports %d violations", step, len(want))
		}
		for _, engine := range []validate.Engine{validate.EngineReplicated, validate.EngineFragmented} {
			if got := detect(engine); !got.Equal(want) {
				t.Fatalf("step %d: %v reports %v, sequential %v", step, engine, got, want)
			}
		}
	}
}

// TestPivotStarsReadTheOverlay: a pivot candidate must have its whole
// pattern star, so the star test must read the overlay's patched view, not
// the frozen base, through a pivot lowered onto the table as it stands
// after the update. No person of the base is both a mayor and affiliated
// to a party, and the base has no governor, so neither rule has a
// candidate. One Apply adds the edge that completes a mayor's star, under
// an edge label the base never interned, and a governor whose party is
// the seeded rule's constant: both the pivot's label and its filter
// constant are new to the table. repVal and disVal over the overlay must
// report both violations, as the sequential engine does, without a
// re-freeze.
func TestPivotStarsReadTheOverlay(t *testing.T) {
	ctx := context.Background()
	set, err := core.ParseRules(strings.NewReader(`
gfd mayor_party {
  node p person
  node c city
  node a party
  edge p mayor_of c
  edge p affiliated_to a
  then c.val = "nowhere"
}

gfd green_governor {
  node x governor
  node c city
  edge x mayor_of c
  when x.party = "green"
  then c.val = "nowhere"
}
`))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(0, 0)
	var mayors, cities, parties []graph.NodeID
	for i := 0; i < 30; i++ {
		p := g.AddNode("person", graph.Attrs{"val": fmt.Sprintf("person_%d", i)})
		c := g.AddNode("city", graph.Attrs{"val": fmt.Sprintf("city_%d", i)})
		g.MustAddEdge(p, c, "mayor_of")
		mayors, cities = append(mayors, p), append(cities, c)
		parties = append(parties, g.AddNode("party", graph.Attrs{"val": fmt.Sprintf("party_%d", i)}))
	}
	sess := mustOpen(t, g)
	prep, err := sess.Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	builds := g.SnapshotBuilds()
	detect := func(engine validate.Engine) validate.Report {
		t.Helper()
		res, err := prep.Detect(ctx, validate.Options{Engine: engine, N: 3})
		if err != nil {
			t.Fatal(err)
		}
		return res.Violations
	}
	if got := detect(validate.EngineReplicated); len(got) != 0 {
		t.Fatalf("no mayor is affiliated and no governor exists, yet repVal reports %v", got)
	}
	gov := graph.NodeID(g.NumNodes())
	sess.Apply(
		incremental.AddEdge{From: mayors[7], To: parties[3], Label: "affiliated_to"},
		incremental.AddNode{Label: "governor", Attrs: graph.Attrs{"party": "green"}},
		incremental.AddEdge{From: gov, To: cities[4], Label: "mayor_of"},
	)
	if !prep.Bundle().Topo().Patched() {
		t.Fatal("the bundle runs on a frozen snapshot, want the session overlay")
	}
	want := detect(validate.EngineSequential)
	if len(want) != 2 || want[0].Rule != "green_governor" || want[1].Rule != "mayor_party" {
		t.Fatalf("sequential engine reports %v, want the completed star and the green governor", want)
	}
	for _, engine := range []validate.Engine{validate.EngineReplicated, validate.EngineFragmented} {
		if got := detect(engine); !got.Equal(want) {
			t.Fatalf("%v reports %v, sequential %v", engine, got, want)
		}
	}
	if n := g.SnapshotBuilds() - builds; n != 0 {
		t.Fatalf("detection after the Apply re-froze %d times", n)
	}
}
