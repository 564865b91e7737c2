package validate

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
)

// cancelWorkload builds a repVal run large enough that aborting it
// mid-flight is observable: a dense synthetic graph with mined rules and
// heavy noise, so detection emits many violations across many units.
func cancelWorkload(t *testing.T) (*graph.Graph, *Bundle) {
	t.Helper()
	// Fine chunks, so that every worker's queue holds many units for a
	// cancellation to land between.
	SetGranularity(t, 64, 16)
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 1200, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 8, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		t.Fatal("no rules mined")
	}
	gen.Inject(g, gen.NoiseConfig{Rate: 0.4, Seed: 11})
	return g, NewBundle(g, set)
}

// TestRepValCancelledBeforeStart: an already-expired context aborts the
// run with its error before detection does meaningful work.
func TestRepValCancelledBeforeStart(t *testing.T) {
	_, b := cancelWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RepValB(ctx, b, Options{N: 4}, nil)
	if err == nil {
		t.Fatal("cancelled repVal returned no error")
	}
	if len(res.Violations) != 0 {
		t.Errorf("cancelled-before-start run still collected %d violations", len(res.Violations))
	}
}

// TestRepValCancelMidRunAbortsPromptly: cancelling from inside the
// streaming callback stops the workers at their next checkpoint, so the
// run emits only a small prefix of the full violation set. This is the
// deterministic promptness assertion: with worker loops that ignore the
// context, the stream would deliver every violation regardless.
func TestRepValCancelMidRunAbortsPromptly(t *testing.T) {
	_, b := cancelWorkload(t)
	full, err := RepValB(context.Background(), b, Options{N: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Violations)
	if total < 50 {
		t.Fatalf("workload too small to observe mid-run cancellation: %d violations", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err = RepValB(ctx, b, Options{N: 4}, callback(func(Violation) {
		emitted++
		if emitted == 3 {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("mid-run cancellation returned no error")
	}
	// Each of the 4 workers stops within one cancellation stride of the
	// cancel; the emitted prefix must stay far below the full set.
	if emitted >= total/2 {
		t.Errorf("cancelled run emitted %d of %d violations; worker loops are not honoring ctx", emitted, total)
	}
}

// TestDisValCancelMidRunAbortsPromptly is the disVal counterpart.
func TestDisValCancelMidRunAbortsPromptly(t *testing.T) {
	g, b := cancelWorkload(t)
	frag := fragment.Partition(g, 4, fragment.Hash)
	full, err := DisValB(context.Background(), b, frag, Options{N: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := len(full.Violations)
	if total < 50 {
		t.Fatalf("workload too small: %d violations", total)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	_, err = DisValB(ctx, b, frag, Options{N: 4}, callback(func(Violation) {
		emitted++
		if emitted == 3 {
			cancel()
		}
	}))
	if err == nil {
		t.Fatal("mid-run cancellation returned no error")
	}
	if emitted >= total/2 {
		t.Errorf("cancelled run emitted %d of %d violations", emitted, total)
	}
}

// TestRepValDeadlineAborts: a short wall-clock deadline aborts a run that
// would otherwise take much longer, and returns promptly (generous bound:
// an engine ignoring ctx would run to completion), having delivered less
// than the full run. The full run's wall is the median of five, so a load
// burst on the host moves one of them, not the bound.
func TestRepValDeadlineAborts(t *testing.T) {
	_, b := cancelWorkload(t)
	count := func(n *int) Sink { return callback(func(Violation) { *n++ }) }
	// Measure the uncancelled run; skip the timing assertion on hosts
	// where it is too fast to bound reliably.
	walls := make([]time.Duration, 5)
	total := 0
	for i := range walls {
		total = 0
		start := time.Now()
		if _, err := RepValB(context.Background(), b, Options{N: 2}, count(&total)); err != nil {
			t.Fatal(err)
		}
		walls[i] = time.Since(start)
	}
	slices.Sort(walls)
	fullWall := walls[len(walls)/2]
	if fullWall < 20*time.Millisecond {
		t.Skip("full run too fast to time a deadline against")
	}
	ctx, cancel := context.WithTimeout(context.Background(), fullWall/20)
	defer cancel()
	delivered := 0
	start := time.Now()
	_, err := RepValB(ctx, b, Options{N: 2}, count(&delivered))
	aborted := time.Since(start)
	if err == nil {
		t.Skip("run finished before the deadline; nothing to assert")
	}
	if delivered >= total {
		t.Errorf("deadline-aborted run delivered %d violations, the full run %d", delivered, total)
	}
	if aborted > fullWall {
		t.Errorf("deadline-aborted run took %v, median full run %v (of %v)", aborted, fullWall, walls)
	}
}

// TestSequentialStreamCancel covers DetVioB's cancellation the same way:
// a cancel from inside the first emission ends the run with the context's
// error within one probe stride of the one worker, far short of the set.
func TestSequentialStreamCancel(t *testing.T) {
	_, b := cancelWorkload(t)
	var all Report
	if err := DetVioB(context.Background(), b, callback(func(v Violation) {
		all = append(all, v)
	})); err != nil {
		t.Fatal(err)
	}
	if len(all) < 50 {
		t.Fatalf("workload too small: %d violations", len(all))
	}
	for _, at := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		err := DetVioB(ctx, b, callback(func(Violation) {
			emitted++
			if emitted == at {
				cancel()
			}
		}))
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at emission %d: err %v, want context.Canceled", at, err)
		}
		if emitted-at > probeStride || emitted >= len(all)/2 {
			t.Errorf("cancel at emission %d: %d of %d violations emitted", at, emitted, len(all))
		}
	}
}
