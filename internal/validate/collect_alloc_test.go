//go:build !race

// The race detector's instrumentation distorts allocation counts.
package validate

import "testing"

// TestCollectAllocationsPerLane bounds the collect mode's allocations by
// growth steps: emitting n violations over two lanes and building the
// sorted report from them allocates O(log n) times per lane — each lane's
// columns grow by doubling, then by a quarter — and a constant number of
// times for the keyer, the keys, the report and its one arena; never once
// per violation. One bound holds at both sizes. The emitters' own match
// copies are made before the measured region.
func TestCollectAllocationsPerLane(t *testing.T) {
	const lanes, columns, growths = 2, 3, 25
	const bound = lanes*columns*growths + 32
	for _, n := range []int{2000, 20000} {
		vs := collectWorkload(n)
		allocs := testing.AllocsPerRun(3, func() {
			var res Result
			sink, finish := orCollect(nil, lanes, &res)
			for i, v := range vs {
				sink.Emit(i%lanes, v)
			}
			finish()
			if len(res.Violations) != n {
				t.Fatalf("collected %d of %d violations", len(res.Violations), n)
			}
		})
		t.Logf("n = %d: %.0f allocations (bound %d)", n, allocs, bound)
		if allocs > bound {
			t.Errorf("collecting %d violations over %d lanes allocates %.0f times, bound %d", n, lanes, allocs, bound)
		}
	}
}
