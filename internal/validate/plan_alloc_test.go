//go:build !race

// The race detector's instrumentation distorts both allocation counts and
// the wall-clock ratio at the end.
package validate_test

import (
	"context"
	"testing"

	"gfd/internal/testutil"
	"gfd/internal/validate"
)

// TestColdPlanAllocationsIndependentOfUnits bounds the cold path's
// allocations by what it legitimately allocates per rule group and worker,
// never by the size of the classes it cuts — the pivots its units will
// enumerate — nor by the units themselves, whose count the chunk rules
// bound per group and worker.
func TestColdPlanAllocationsIndependentOfUnits(t *testing.T) {
	g, set := coldPlanWorkload()
	opt := validate.Options{N: 2}
	b := validate.NewBundle(g, set)
	groups := len(b.GroupShapes(opt))
	members := 0
	for _, gs := range b.GroupShapes(opt) {
		members += gs.Pivot.ClassLen(b.Topo(), 0)
	}
	units, err := b.ColdPlan(opt)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := validate.NewBundle(g, set).ColdPlan(opt); err != nil {
			t.Fatal(err)
		}
	})
	// Per group: its compiled artifacts and its units' ranges; per worker:
	// the assignment.
	bound := float64(64*(groups+opt.N) + 128)
	t.Logf("%d groups, %d workers, %d units over %d class members: %.0f allocations (bound %.0f)", groups, opt.N, units, members, allocs, bound)
	if allocs > bound {
		t.Fatalf("cold plan of %d units allocates %.0f times, bound %.0f", units, allocs, bound)
	}
	if members < 20*int(bound) {
		t.Fatalf("only %d class members: the bound %.0f does not separate per-member allocation", members, bound)
	}
}

// TestWarmRoundAllocationsIndependentOfUnits is the same bound for a warm
// repVal round: the plan and every unit's star-test survivors memoized,
// each unit handed to Executor.Run with its queue tail and the shared
// skip-count reader — it allocates per worker and per rule group, never
// per unit or per pivot, and runs no star test.
func TestWarmRoundAllocationsIndependentOfUnits(t *testing.T) {
	g, set := coldPlanWorkload()
	opt := validate.Options{N: 2}
	b := validate.NewBundle(g, set)
	groups := len(b.GroupShapes(opt))
	pivots, err := b.PlanVectors(opt)
	if err != nil {
		t.Fatal(err)
	}
	sink := testutil.Callback(func(validate.Violation) {})
	round := func() {
		if _, err := validate.RepValB(context.Background(), b, opt, sink); err != nil {
			t.Fatal(err)
		}
	}
	round() // plans, compiles, warms the matcher's plan cache
	measured := b.EstimationStats().Measured
	allocs := testing.AllocsPerRun(3, round)
	if st := b.EstimationStats(); st.Measured != measured {
		t.Fatalf("warm rounds ran %d star tests", st.Measured-measured)
	}
	bound := float64(64*(groups+opt.N) + 128)
	t.Logf("%d groups, %d workers, %d pivots: %.0f allocations (bound %.0f)", groups, opt.N, pivots, allocs, bound)
	if allocs > bound {
		t.Fatalf("warm round over %d pivots allocates %.0f times, bound %.0f", pivots, allocs, bound)
	}
	if pivots < 10000 || pivots < 20*int(bound) {
		t.Fatalf("only %d pivots enumerated: the bound %.0f does not separate per-pivot allocation", pivots, bound)
	}
}

// TestParallelOverSequentialRatio is a loose bound on the parallel
// engine's excess work: warm repVal with one worker may cost at most 1.5×
// warm sequential detection, on the cyclic set and on the KB set, whose
// constant-X rules seed their pivots so that a unit enumerates only where
// X can hold.
func TestParallelOverSequentialRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock ratio")
	}
	bounds := map[string]float64{"cyclic": 1.5, "kb": 1.5}
	for _, w := range validate.ParallelWorkloads() {
		ratio := validate.ParallelOverSequential(t, w, 5)
		t.Logf("%s: repVal n = 1 over sequential %.2f", w.Name, ratio)
		if ratio > bounds[w.Name] {
			t.Errorf("%s: repVal n = 1 costs %.2f× the sequential engine, bound %g", w.Name, ratio, bounds[w.Name])
		}
	}
}
