package validate

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fault"
	"gfd/internal/fragment"
)

// This file is the chaos differential suite: every recoverable fault plan
// must leave the violation set byte-identical to the fault-free run's,
// and every unrecoverable one must announce itself as a *PartialError
// with an honest Completeness census. Failing cases reproduce from the
// plan printed in the failure message (plans are seed-deterministic).

// requireNoGoroutineLeak polls until the goroutine count returns to the
// pre-test level (workers exit asynchronously after a stop) and fails
// with a full stack dump if it never does.
func requireNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// requireFired fails a recovery run whose plan holds a fatal fault (one
// that ends an attempt) yet shows no retry and no death: the workload was
// too small for the plan's unit or crossing ordinals, and the differential
// proved nothing.
func requireFired(t *testing.T, plan *fault.Plan, c Completeness) {
	t.Helper()
	if plan.Fatal() > 0 && c.Retries+c.WorkerDeaths == 0 {
		t.Fatalf("%v: no fault fired: %+v", plan, c)
	}
}

// TestChaosDifferential sweeps seed-derived recoverable fault plans over
// both parallel engines: worker kills, straggler delays, and panics
// inside match enumeration and literal evaluation must all recover to
// exactly the fault-free violation set, with a complete census.
func TestChaosDifferential(t *testing.T) {
	g, b := cancelWorkload(t)
	ctx := context.Background()
	const n = 4
	frag := fragment.Partition(g, n, fragment.Hash)

	baseRep, err := RepValB(ctx, b, Options{N: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseDis, err := DisValB(ctx, b, frag, Options{N: n}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(baseRep.Violations) == 0 {
		t.Fatal("workload produced no violations; the differential is vacuous")
	}

	activity := 0
	for seed := int64(1); seed <= 8; seed++ {
		repPlan := fault.FromSeed(seed, n, baseRep.Units)
		t.Run(fmt.Sprintf("rep/seed=%d", seed), func(t *testing.T) {
			res, err := RepValB(ctx, b, Options{N: n, Inject: repPlan}, nil)
			if err != nil {
				t.Fatalf("%v: %v", repPlan, err)
			}
			if !res.Violations.Equal(baseRep.Violations) {
				t.Fatalf("%v: violation set diverged from fault-free run (%d vs %d)",
					repPlan, len(res.Violations), len(baseRep.Violations))
			}
			c := res.Completeness
			if !c.Complete() || c.Failed != 0 {
				t.Fatalf("%v: census not complete: %+v", repPlan, c)
			}
			requireFired(t, repPlan, c)
			activity += c.Retries + c.WorkerDeaths
		})

		disPlan := fault.FromSeed(seed+1000, n, baseDis.Units)
		t.Run(fmt.Sprintf("dis/seed=%d", seed), func(t *testing.T) {
			res, err := DisValB(ctx, b, frag, Options{N: n, Inject: disPlan}, nil)
			if err != nil {
				t.Fatalf("%v: %v", disPlan, err)
			}
			if !res.Violations.Equal(baseDis.Violations) {
				t.Fatalf("%v: violation set diverged from fault-free run (%d vs %d)",
					disPlan, len(res.Violations), len(baseDis.Violations))
			}
			c := res.Completeness
			if !c.Complete() || c.Failed != 0 {
				t.Fatalf("%v: census not complete: %+v", disPlan, c)
			}
			requireFired(t, disPlan, c)
			activity += c.Retries + c.WorkerDeaths
		})
	}
	if activity == 0 {
		t.Error("no fault fired across the whole sweep — every differential was vacuous")
	}
}

// TestChaosStreamDedupe pins exactly-once delivery on the streaming path:
// a worker killed mid-run forces its in-flight unit to be retried, and
// the retry must skip the violations the first attempt already streamed.
func TestChaosStreamDedupe(t *testing.T) {
	_, b := cancelWorkload(t)
	ctx := context.Background()
	base, err := RepValB(ctx, b, Options{N: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Kill one worker after it has streamed part of a unit, and panic a
	// match crossing late enough to land mid-enumeration of another.
	plan := fault.NewPlan(17).KillWorker(1, 1).PanicAt(fault.Match, 200)
	var got Report
	res, err := RepValB(ctx, b, Options{N: 4, Inject: plan}, Callback(func(v Violation) bool {
		got = append(got, v)
		return true
	}))
	if err != nil {
		t.Fatalf("%v: %v", plan, err)
	}
	if c := res.Completeness; c.Retries == 0 || c.WorkerDeaths == 0 {
		t.Fatalf("%v: no unit was retried after a death: %+v", plan, c)
	}
	got.Sort()
	if !got.Equal(base.Violations) {
		t.Fatalf("%v: streamed set diverged (%d vs %d) — duplicate or lost emissions under retry",
			plan, len(got), len(base.Violations))
	}
}

// TestChaosStragglerDeadline: a unit whose first attempt stalls past
// Options.UnitDeadline is abandoned cooperatively (the worker survives)
// and the retry — not delayed, the fault fires once — completes the run
// with the full violation set.
func TestChaosStragglerDeadline(t *testing.T) {
	_, b := cancelWorkload(t)
	ctx := context.Background()
	base, err := RepValB(ctx, b, Options{N: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(5).DelayUnit(0, 300*time.Millisecond)
	res, err := RepValB(ctx, b, Options{N: 4, Inject: plan, UnitDeadline: 60 * time.Millisecond}, nil)
	if err != nil {
		t.Fatalf("%v: %v", plan, err)
	}
	if !res.Violations.Equal(base.Violations) {
		t.Fatalf("%v: violation set diverged after deadline retry", plan)
	}
	c := res.Completeness
	if c.Retries < 1 {
		t.Fatalf("%v: straggler never timed out: %+v", plan, c)
	}
	if !c.Complete() {
		t.Fatalf("%v: census not complete after retry: %+v", plan, c)
	}
	if c.WorkerDeaths != 0 {
		t.Fatalf("%v: deadline expiry killed a worker: %+v", plan, c)
	}
}

// TestChaosAllWorkersDead: killing every worker on its first unit leaves
// nothing to reassign to — the run returns ErrPartial, no unit succeeds,
// and the census says exactly that.
func TestChaosAllWorkersDead(t *testing.T) {
	_, b := cancelWorkload(t)
	ctx := context.Background()

	plan := fault.NewPlan(2).KillWorker(0, 0).KillWorker(1, 0)
	res, err := RepValB(ctx, b, Options{N: 2, Inject: plan}, nil)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("%v: err = %v, want ErrPartial", plan, err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) || len(pe.Failures) == 0 {
		t.Fatalf("%v: err = %v, want *PartialError with failures", plan, err)
	}
	var we *cluster.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("%v: failures do not unwrap to a *cluster.WorkerError: %v", plan, err)
	}
	c := res.Completeness
	if c.WorkerDeaths != 2 || c.Succeeded != 0 || c.Failed != c.Units || c.Complete() {
		t.Fatalf("%v: census lies about total loss: %+v", plan, c)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("%v: %d violations from workers killed before any detection", plan, len(res.Violations))
	}
}

// TestChaosRetryDisabled: with Retry.Max < 0 a single injected panic
// exhausts its unit's budget immediately — exactly one unit fails, the
// dead worker's unstarted units still migrate to the survivors, and the
// partial violation set is a subset of the fault-free one.
func TestChaosRetryDisabled(t *testing.T) {
	_, b := cancelWorkload(t)
	ctx := context.Background()
	base, err := RepValB(ctx, b, Options{N: 4}, nil)
	if err != nil {
		t.Fatal(err)
	}

	plan := fault.NewPlan(3).PanicAt(fault.Match, 1)
	res, err := RepValB(ctx, b, Options{N: 4, Retry: Retry{Max: -1}, Inject: plan}, nil)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("%v: err = %v, want ErrPartial", plan, err)
	}
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("%v: err = %v, want *PartialError", plan, err)
	}
	if len(pe.Failures) != 1 {
		t.Fatalf("%v: %d failures, want exactly 1 (the panicked unit)", plan, len(pe.Failures))
	}
	if f := pe.Failures[0]; f.Attempts != 1 {
		t.Fatalf("%v: failed unit consumed %d attempts with retries disabled", plan, f.Attempts)
	}
	c := res.Completeness
	if c.WorkerDeaths != 1 || c.Failed != 1 || c.Succeeded != c.Units-1 || c.Retries != 0 {
		t.Fatalf("%v: census wrong under disabled retries: %+v", plan, c)
	}
	// Partial output is trustworthy: everything reported is real.
	seen := make(map[string]bool, len(base.Violations))
	for _, v := range base.Violations {
		seen[fmt.Sprint(v.Rule, v.Match)] = true
	}
	for _, v := range res.Violations {
		if !seen[fmt.Sprint(v.Rule, v.Match)] {
			t.Fatalf("%v: partial run reported a violation absent from the fault-free set: %v", plan, v)
		}
	}
}

// TestChaosNoGoroutineLeaks drives faulted runs — including a mid-stream
// early stop — and requires the goroutine count to settle back to its
// pre-test level: dead workers, stopped streams, and recovery rounds must
// not strand goroutines.
func TestChaosNoGoroutineLeaks(t *testing.T) {
	_, b := cancelWorkload(t)
	ctx := context.Background()
	before := runtime.NumGoroutine()

	for seed := int64(1); seed <= 4; seed++ {
		plan := fault.FromSeed(seed, 4, 64)
		res, err := RepValB(ctx, b, Options{N: 4, Inject: plan}, nil)
		if err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		requireFired(t, plan, res.Completeness)
		stopPlan := fault.NewPlan(seed).KillWorker(0, 0)
		n := 0
		_, err = RepValB(ctx, b, Options{N: 4, Inject: stopPlan}, Callback(func(Violation) bool {
			n++
			return false // stop at the first violation
		}))
		if err != nil {
			t.Fatalf("%v: early-stopped run returned %v", stopPlan, err)
		}
		if n != 1 {
			t.Fatalf("%v: yield called %d times after returning false", stopPlan, n)
		}
	}
	requireNoGoroutineLeak(t, before)
}
