package dist

import (
	"context"
	"testing"

	"gfd/internal/core"
	"gfd/internal/validate"
)

// BenchmarkDistDetect runs the distributed engine end to end — spawn,
// handshake, windowed dispatch, drain — over real worker processes (this
// test binary, re-executed) on the package's fixture recipe. It reports
// units/op and the coordinator's flushes/op beside the time, so a dispatch
// path that went back to one flush per unit shows in CI's smoke run
// whatever the host's clock says.
//
// The fixture's mined rules each have a constant X, which seeds their
// pivots: "seeded" schedules a few dozen units. "xdropped" runs the same
// rules with X removed, at a scale where the transport dominates — tens of
// thousands of microsecond units — and fails below that floor, so the
// windowed path stays exercised.
func BenchmarkDistDetect(b *testing.B) {
	f := buildFixture(3000, b.TempDir())
	if f.err != nil {
		b.Fatal(f.err)
	}
	var dropped []*core.GFD
	for _, r := range f.set.Rules() {
		dropped = append(dropped, core.MustNew(r.Name, r.Q, nil, r.Y))
	}
	xb := validate.NewBundle(f.g, core.MustNewSet(dropped...))
	ref := validate.NewCollectSink(1)
	if err := validate.DetVioB(context.Background(), xb, ref); err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		b        *validate.Bundle
		want     validate.Report
		minUnits int
	}{
		{"seeded", f.b, f.base, 0},
		{"xdropped", xb, ref.Report(), 10000},
	} {
		b.Run(c.name, func(b *testing.B) {
			opt := distOpt(&f)
			var units, flushes int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, s, err := detectSpied(context.Background(), c.b, opt, nil, nil)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Violations.Equal(c.want) {
					b.Fatalf("violation set diverged (%d vs %d)", len(res.Violations), len(c.want))
				}
				units += res.Units
				flushes += coordinatorFlushes(s.fleet)
			}
			if units/b.N < c.minUnits {
				b.Fatalf("a run schedules %d units, want at least %d", units/b.N, c.minUnits)
			}
			b.ReportMetric(float64(units)/float64(b.N), "units/op")
			b.ReportMetric(float64(flushes)/float64(b.N), "flushes/op")
		})
	}
}
