// Iterator-API coverage of the fused streaming pipeline: ranging
// Prepared.Violations must deliver exactly Detect's set per engine, and
// abandoning the range — break at the first element, break mid-stream, or
// cancelling the context while producers are blocked on full lanes — must
// unwind the whole pipeline without leaking a goroutine or calling yield
// again. The same pipeline under seeded fault plans is
// validate.TestViolationsUnderFaults and TestViolationsPartialError, in
// the test binary that faults the slots.
package session_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"gfd/internal/gen"
	"gfd/internal/session"
	"gfd/internal/validate"
)

// chaosWorkload prepares a noisy mined workload dense enough that a stop
// lands mid-detection, plus its reference report.
func chaosWorkload(t *testing.T) (*session.Prepared, *validate.Result) {
	t.Helper()
	// Fine chunks, so that every worker's queue is long.
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
