package validate_test

// The session's pull pipeline under faults: ranging Prepared.Violations
// under seeded fault plans on the goroutine slots (InjectSlots) must
// deliver the fault-free set, and a plan no retry survives must end the
// range in a typed partial error.

import (
	"context"
	"errors"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/session"
	"gfd/internal/validate"
)

func openSession(t *testing.T, g *graph.Graph) *session.Session {
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

// chaosWorkload prepares a noisy mined workload dense enough that faults
// land mid-detection, plus its fault-free reference report.
func chaosWorkload(t *testing.T) (*session.Prepared, *validate.Result) {
	t.Helper()
	// Fine chunks, so that every worker's queue is long enough for the
	// fault plans' unit ordinals.
	t.Cleanup(validate.SetChunkGranularity(64, 16))
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 300, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		t.Fatal("no rules mined")
	}
	gen.Inject(g, gen.NoiseConfig{Rate: 0.3, Seed: 11})
	prep, err := openSession(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prep.Detect(context.Background(), validate.Options{Engine: validate.EngineReplicated, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Violations) == 0 {
		t.Fatal("workload produced no violations; chaos assertions would be vacuous")
	}
	return prep, base
}

// TestViolationsUnderFaults: the streamed set under seed-derived
// recoverable fault plans still equals the fault-free report — retried
// and reassigned units never double-report into the lanes — for both
// parallel engines, under the race detector via the chaos CI job.
func TestViolationsUnderFaults(t *testing.T) {
	ctx := context.Background()
	prep, base := chaosWorkload(t)
	disBase, err := prep.Detect(ctx, validate.Options{Engine: validate.EngineFragmented, N: 4})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, c := range []struct {
			engine validate.Engine
			want   validate.Report
			plan   *validate.FaultPlan
		}{
			{validate.EngineReplicated, base.Violations, validate.FromSeed(seed, 4, base.Units, len(base.Violations))},
			{validate.EngineFragmented, disBase.Violations, validate.FromSeed(seed+1000, 4, disBase.Units, len(disBase.Violations))},
		} {
			// A plan with a fatal fault must show a retry or a death in the
			// census, or the comparison proved nothing.
			validate.InjectSlots(t, c.plan)
			var res validate.Result
			var got validate.Report
			for v, err := range prep.ViolationsResult(ctx, validate.Options{Engine: c.engine, N: 4}, &res) {
				if err != nil {
					t.Fatalf("%v %v: iterator error: %v", c.engine, c.plan, err)
				}
				got = append(got, v)
			}
			if r := res.Completeness; c.plan.Fatal() > 0 && r.Retries+r.WorkerDeaths == 0 {
				t.Fatalf("%v %v: no fault fired: %+v", c.engine, c.plan, r)
			}
			got.Sort()
			if !got.Equal(c.want) {
				t.Fatalf("%v %v: streamed set diverged from fault-free Detect (%d vs %d)",
					c.engine, c.plan, len(got), len(c.want))
			}
		}
	}
}

// TestViolationsPartialError: an unrecoverable fault plan surfaces
// through the iterator as a trailing ErrPartial — after every violation
// the surviving workers delivered — and ViolationsResult's out parameter
// carries the census, so a streaming consumer gets the same honest
// failure semantics as Detect, which must not flatten the typed failure
// either.
func TestViolationsPartialError(t *testing.T) {
	g, set := minedWorkload(t, 7)
	prep, err := openSession(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	validate.InjectSlots(t, validate.NewFaultPlan(9).KillWorker(0, 0).KillWorker(1, 0))
	opt := validate.Options{Engine: validate.EngineReplicated, N: 2}
	detected, err := prep.Detect(context.Background(), opt)
	if !errors.Is(err, validate.ErrPartial) {
		t.Fatalf("Detect: err = %v, want ErrPartial", err)
	}
	var pe *validate.PartialError
	if !errors.As(err, &pe) || len(pe.Failures) == 0 {
		t.Fatalf("Detect: err = %v, want *PartialError with failures", err)
	}
	if c := detected.Completeness; c.Complete() || c.WorkerDeaths != 2 || c.Failed != len(pe.Failures) {
		t.Fatalf("Detect: census inconsistent with failure list: %+v vs %d failures", c, len(pe.Failures))
	}

	var res validate.Result
	var finalErr error
	for _, err := range prep.ViolationsResult(context.Background(), opt, &res) {
		if err != nil {
			if finalErr != nil {
				t.Fatalf("error yielded twice: %v then %v", finalErr, err)
			}
			finalErr = err
		}
	}
	if !errors.Is(finalErr, validate.ErrPartial) {
		t.Fatalf("final error = %v, want ErrPartial", finalErr)
	}
	c := res.Completeness
	if c.Complete() || c.WorkerDeaths != 2 {
		t.Fatalf("census inconsistent with two worker deaths: %+v", c)
	}
}
