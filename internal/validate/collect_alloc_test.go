//go:build !race

// The race detector's instrumentation distorts allocation counts.
package validate

import (
	"runtime"
	"testing"
)

// TestCollectAllocationsPerLane bounds the collect mode's allocations by
// growth steps: emitting n violations over two lanes and building the
// sorted report from them allocates O(log n) chunks per lane while the
// chunk size doubles, then one per maxChunk words — never regrowing a
// chunk — and a constant number of times for the keyer, the keys, the
// per-lane sorts and the report; never once per violation. One bound holds
// at both sizes. The emitters' own match copies are made before the
// measured region.
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

// TestCollectBytesPerViolation bounds the bytes the collect mode allocates
// per violation: n three-ID violations over two lanes cost their words in
// the lanes' chunks (a rule-name index, a length and three IDs: 20 B, plus the
// last chunk's slack), a 16 B sort key and the Report's 40 B header, whose
// matches borrow the chunks. Lanes that regrow by append, or a second
// arena the report copies its matches into, pay each byte again.
func TestCollectBytesPerViolation(t *testing.T) {
	const n, lanes, bound = 20000, 2, 90
	vs := collectWorkload(n)
	collect := func() {
		var res Result
		sink, finish := orCollect(nil, lanes, &res)
		for i, v := range vs {
			sink.Emit(i%lanes, v)
		}
		finish()
		if len(res.Violations) != n {
			t.Fatalf("collected %d of %d violations", len(res.Violations), n)
		}
	}
	collect()
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for range runs {
		collect()
	}
	runtime.ReadMemStats(&after)
	per := float64(after.TotalAlloc-before.TotalAlloc) / runs / n
	t.Logf("%.1f B per violation (bound %d)", per, bound)
	if per > bound {
		t.Errorf("collecting %d violations over %d lanes allocates %.1f B per violation, bound %d", n, lanes, per, bound)
	}
}
