//go:build !race

// The race detector makes sync.Pool drop what is put into it, so every
// block traversal allocates its scratch anew and the counts below measure
// the detector, not the planner; its instrumentation also distorts the
// wall-clock ratio at the end.
package validate_test

import (
	"context"
	"testing"

	"gfd/internal/validate"
)

// TestColdPlanAllocationsIndependentOfUnits bounds the cold path's
// allocations by what it legitimately allocates per — rule group,
// candidate list, worker — and not by the number of units planned.
func TestColdPlanAllocationsIndependentOfUnits(t *testing.T) {
	g, set := coldPlanWorkload()
	opt := validate.Options{N: 2}
	groups, lists, units := validate.NewBundle(g, set).PlanShape(opt)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := validate.NewBundle(g, set).ColdPlan(opt); err != nil {
			t.Fatal(err)
		}
	})
	// Per group: its compiled artifacts, list indices, up to 16² range
	// tasks' worth of slice growth; per list: the filter pass's output, the
	// sort's seven arrays and its ranges; per worker: four supersteps'
	// goroutines and scratch.
	bound := float64(64*(groups+lists+opt.N) + 128)
	t.Logf("%d groups, %d lists, %d workers, %d units: %.0f allocations (bound %.0f)", groups, lists, opt.N, units, allocs, bound)
	if allocs > bound {
		t.Fatalf("cold plan of %d units allocates %.0f times, bound %.0f", units, allocs, bound)
	}
	if units < 20*int(bound) {
		t.Fatalf("only %d units planned: the bound %.0f does not separate per-unit allocation", units, bound)
	}
}

// TestWarmRoundAllocationsIndependentOfUnits is the same bound for the
// scheduler's per-slot loop: a warm repVal round — plan memoized, every unit
// handed to Executor.Run with its queue tail and the shared skip-count reader
// — allocates per worker and per rule group, never per unit.
func TestWarmRoundAllocationsIndependentOfUnits(t *testing.T) {
	g, set := coldPlanWorkload()
	opt := validate.Options{N: 2}
	b := validate.NewBundle(g, set)
	groups, _, units := b.PlanShape(opt)
	sink := validate.Callback(func(validate.Violation) bool { return true })
	round := func() {
		if _, err := validate.RepValB(context.Background(), b, opt, sink); err != nil {
			t.Fatal(err)
		}
	}
	round() // plans, compiles, warms the matcher's plan cache
	allocs := testing.AllocsPerRun(3, round)
	bound := float64(64*(groups+opt.N) + 128)
	t.Logf("%d groups, %d workers, %d units: %.0f allocations (bound %.0f)", groups, opt.N, units, allocs, bound)
	if allocs > bound {
		t.Fatalf("warm round of %d units allocates %.0f times, bound %.0f", units, allocs, bound)
	}
	if units < 10000 || units < 20*int(bound) {
		t.Fatalf("only %d units scheduled: the bound %.0f does not separate per-unit allocation", units, bound)
	}
}

// TestParallelOverSequentialRatio is a loose bound on the parallel
// engine's excess work: warm repVal with one worker may cost at most 3×
// warm sequential detection on the cyclic set and 1.5× on the KB set, whose
// constant-X rules seed their pivots so that a unit exists only where X
// can hold.
func TestParallelOverSequentialRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio")
	}
	bounds := map[string]float64{"cyclic": 3, "kb": 1.5}
	for _, w := range validate.ParallelWorkloads() {
		ratio := validate.ParallelOverSequential(t, w, 5)
		t.Logf("%s: repVal n = 1 over sequential %.2f", w.Name, ratio)
		if ratio > bounds[w.Name] {
			t.Errorf("%s: repVal n = 1 costs %.2f× the sequential engine, bound %g", w.Name, ratio, bounds[w.Name])
		}
	}
}
