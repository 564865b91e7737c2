//go:build !race

// The race detector makes sync.Pool drop what is put into it, so every
// block traversal allocates its scratch anew and the count below measures
// the detector, not the planner.
package validate_test

import (
	"testing"

	"gfd/internal/validate"
)

// TestColdPlanAllocationsIndependentOfUnits bounds the cold path's
// allocations by what it legitimately allocates per — rule group,
// candidate class, worker — and not by the number of units planned.
func TestColdPlanAllocationsIndependentOfUnits(t *testing.T) {
	g, set := coldPlanWorkload()
	opt := validate.Options{N: 2}
	groups, classes, units := validate.NewBundle(g, set).PlanShape(opt)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := validate.NewBundle(g, set).ColdPlan(opt); err != nil {
			t.Fatal(err)
		}
	})
	// Per group: its compiled artifacts, class indices, up to 16² range
	// tasks' worth of slice growth; per class: the sort's seven arrays and
	// its ranges; per worker: four supersteps' goroutines and scratch.
	bound := float64(64*(groups+classes+opt.N) + 128)
	t.Logf("%d groups, %d classes, %d workers, %d units: %.0f allocations (bound %.0f)", groups, classes, opt.N, units, allocs, bound)
	if allocs > bound {
		t.Fatalf("cold plan of %d units allocates %.0f times, bound %.0f", units, allocs, bound)
	}
	if units < 20*int(bound) {
		t.Fatalf("only %d units planned: the bound %.0f does not separate per-unit allocation", units, bound)
	}
}
