package dist

import (
	"context"
	"testing"
)

// BenchmarkDistDetect runs the distributed engine end to end — spawn,
// handshake, windowed dispatch, drain — over real worker processes (this
// test binary, re-executed) on the package's fixture recipe at a scale where
// the transport dominates: tens of thousands of microsecond units. It
// reports units/op and the coordinator's flushes/op beside the time, so a
// dispatch path that went back to one flush per unit shows in CI's smoke run
// whatever the host's clock says.
func BenchmarkDistDetect(b *testing.B) {
	f := buildFixture(3000, b.TempDir())
	if f.err != nil {
		b.Fatal(f.err)
	}
	opt := distOpt(&f, nil)
	var units, flushes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, s, err := detectSpied(context.Background(), f.b, opt, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Violations.Equal(f.base) {
			b.Fatalf("violation set diverged (%d vs %d)", len(res.Violations), len(f.base))
		}
		units += res.Units
		flushes += coordinatorFlushes(s.fleet)
	}
	if units/b.N < 10000 {
		b.Fatalf("a run schedules %d units, want at least 10000", units/b.N)
	}
	b.ReportMetric(float64(units)/float64(b.N), "units/op")
	b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
}
