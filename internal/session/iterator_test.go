// Iterator-API coverage of the fused streaming pipeline: ranging
// Prepared.Violations must deliver exactly Detect's set (per engine, and
// under seeded fault plans), and abandoning the range — break at the
// first element, break mid-stream, or cancelling the context while
// producers are blocked on full lanes — must unwind the whole pipeline
// without leaking a goroutine or calling yield again.
package session_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gfd/internal/fault"
	"gfd/internal/gen"
	"gfd/internal/session"
	"gfd/internal/validate"
)

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
	prep, err := mustOpen(t, g).Prepare(set)
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

// waitGoroutines polls until the goroutine count returns to the baseline,
// failing the test if a pipeline goroutine (worker or engine) outlives its
// iterator.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// streamEngines: every engine the session facade routes through the
// pull-based pipeline.
var streamEngines = []validate.Engine{
	validate.EngineSequential,
	validate.EngineReplicated,
	validate.EngineFragmented,
	validate.EngineGCFD,
	validate.EngineBigDansing,
}

// TestViolationsMatchesDetect: ranging the iterator to completion yields
// Detect's violation set element-for-element (sorted for comparison — the
// stream is delivery-ordered), across engines and seeds, including with
// single-slot lanes where every producer emission blocks on the consumer.
func TestViolationsMatchesDetect(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{5, 17} {
		g, set := minedWorkload(t, seed)
		prep, err := mustOpen(t, g).Prepare(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range streamEngines {
			for _, buffer := range []int{0, 1} {
				opt := validate.Options{Engine: engine, N: 3, StreamBuffer: buffer}
				want, err := prep.Detect(ctx, opt)
				if err != nil {
					t.Fatal(err)
				}
				var got validate.Report
				for v, err := range prep.Violations(ctx, opt) {
					if err != nil {
						t.Fatalf("seed %d %v buf %d: iterator error: %v", seed, engine, buffer, err)
					}
					got = append(got, v)
				}
				got.Sort()
				if !got.Equal(want.Violations) {
					t.Errorf("seed %d %v buf %d: iterator delivered %d violations, Detect %d",
						seed, engine, buffer, len(got), len(want.Violations))
				}
			}
		}
	}
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
			plan   *fault.Plan
		}{
			{validate.EngineReplicated, base.Violations, fault.FromSeed(seed, 4, base.Units)},
			{validate.EngineFragmented, disBase.Violations, fault.FromSeed(seed+1000, 4, disBase.Units)},
		} {
			// A plan with a fatal fault must show a retry or a death in the
			// census, or the comparison proved nothing.
			var res validate.Result
			var got validate.Report
			for v, err := range prep.ViolationsResult(ctx, validate.Options{Engine: c.engine, N: 4, Inject: c.plan}, &res) {
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

// TestViolationsBreakAtFirst: breaking out of the range after the first
// element stops detection for every engine — yield is never re-entered,
// no error materializes, and the workers and the engine goroutine unwind.
// A one-violation buffer per slot makes the abandonment maximally
// hostile: producers are likely mid-send when the break lands.
func TestViolationsBreakAtFirst(t *testing.T) {
	ctx := context.Background()
	g, set, _ := capitalWorkload() // deterministic: exactly 2 violations
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for _, engine := range streamEngines {
		opt := validate.Options{Engine: engine, N: 3, StreamBuffer: 1}
		if full, err := prep.Detect(ctx, opt); err != nil || len(full.Violations) == 0 {
			// Some engines see nothing here (GCFD's rule conversion drops
			// the capital rule); break-at-first needs a first.
			continue
		}
		seen := 0
		for _, verr := range prep.Violations(ctx, opt) {
			if verr != nil {
				t.Fatalf("%v: iterator error: %v", engine, verr)
			}
			seen++
			break
		}
		if seen != 1 {
			t.Errorf("%v: saw %d violations after breaking at the first", engine, seen)
		}
	}
	waitGoroutines(t, before)
}

// TestViolationsBreakMidStream: a consumer that walks partway into a
// dense stream and breaks gets exactly the prefix it asked for; the
// abandoned remainder — including whatever the workers had in flight —
// is discarded without error or leak.
func TestViolationsBreakMidStream(t *testing.T) {
	ctx := context.Background()
	prep, base := chaosWorkload(t)
	stop := len(base.Violations) / 2
	if stop < 2 {
		t.Fatalf("workload too sparse for a mid-stream break: %d violations", len(base.Violations))
	}
	before := runtime.NumGoroutine()
	seen := 0
	for _, err := range prep.Violations(ctx, validate.Options{Engine: validate.EngineReplicated, N: 4, StreamBuffer: 1}) {
		if err != nil {
			t.Fatalf("iterator error before the break: %v", err)
		}
		if seen++; seen >= stop {
			break
		}
	}
	if seen != stop {
		t.Errorf("saw %d violations, wanted to stop at %d", seen, stop)
	}
	waitGoroutines(t, before)
}

// TestViolationsCancelWhileBlocked: cancelling the caller's context while
// producers are wedged on full single-slot lanes (the consumer stalls
// after one element) unblocks them, and the iterator — drained politely,
// never broken — reports the cancellation as its final element.
func TestViolationsCancelWhileBlocked(t *testing.T) {
	prep, base := chaosWorkload(t)
	if len(base.Violations) < 8 {
		t.Fatalf("workload too sparse to wedge the lanes: %d violations", len(base.Violations))
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var finalErr error
	seen := 0
	for v, err := range prep.Violations(ctx, validate.Options{Engine: validate.EngineReplicated, N: 4, StreamBuffer: 1}) {
		if err != nil {
			finalErr = err
			continue
		}
		_ = v
		if seen++; seen == 1 {
			// Give every worker time to fill its one-slot lane and block,
			// then cancel out from under them.
			time.Sleep(50 * time.Millisecond)
			cancel()
		}
	}
	if !errors.Is(finalErr, context.Canceled) {
		t.Fatalf("final error = %v, want context.Canceled", finalErr)
	}
	waitGoroutines(t, before)
}

// TestViolationsPartialError: an unrecoverable fault plan surfaces
// through the iterator as a trailing ErrPartial — after every violation
// the surviving workers delivered — and ViolationsResult's out parameter
// carries the census, so a streaming consumer gets the same honest
// failure semantics as Detect, which must not flatten the typed failure
// either.
func TestViolationsPartialError(t *testing.T) {
	g, set := minedWorkload(t, 7)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(9).KillWorker(0, 0).KillWorker(1, 0)
	opt := validate.Options{Engine: validate.EngineReplicated, N: 2, Inject: plan}
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

// TestViolationsDistErrorBeforeFirstEmission: the distributed engine
// failing before anything is emitted — here a manifest that does not
// exist, the same shape as a spawn refusal or a fleet that never
// handshakes — must surface through the iterator as exactly one yielded
// error, after which the pipeline (engine goroutine and channel) is fully
// unwound. This is the PipeSink early-shutdown path the dist
// violation-return route reuses.
func TestViolationsDistErrorBeforeFirstEmission(t *testing.T) {
	g, set := minedWorkload(t, 5)
	prep, err := mustOpen(t, g).Prepare(set)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	opt := validate.Options{
		Engine: validate.EngineDistributed,
		Dist:   &validate.DistOptions{ManifestPath: t.TempDir() + "/absent.manifest"},
	}
	var finalErr error
	n := 0
	for v, err := range prep.Violations(context.Background(), opt) {
		if err != nil {
			if finalErr != nil {
				t.Fatalf("error yielded twice: %v then %v", finalErr, err)
			}
			finalErr = err
			continue
		}
		n++
		_ = v
	}
	if finalErr == nil {
		t.Fatal("missing manifest produced no error")
	}
	if n != 0 {
		t.Fatalf("erroring engine still delivered %d violations", n)
	}
	waitGoroutines(t, before)
}
