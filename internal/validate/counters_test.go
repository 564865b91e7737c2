package validate

import (
	"context"
	"testing"
	"time"

	"gfd/internal/fragment"
	"gfd/internal/gen"
)

// shipCounters is a run's exact shipment counters, comparable in one step.
type shipCounters struct {
	bytes, messages, rounds, maxReceived int64
}

func counters(r *Result) shipCounters {
	return shipCounters{r.BytesShipped, r.Messages, r.Rounds, r.MaxReceived}
}

// TestShipmentCountersGolden pins repVal's and disVal's shipment counters,
// cold and warm, on one seeded fixture at n = 4. The values were recorded
// by running the same scenario on commit 81c6cc1776da (before the engines
// dropped the cost model), whose Result.Comm is the modeledComm column: a
// change that moves a shipment, a round or the busiest receiver fails here,
// and ModeledComm must reproduce the old model bit for bit (1 508 063 ns is
// 3 rounds plus 1 008 bytes at 1 Gbit/s, one nanosecond under the exact
// 8 064, as the float expression truncates).
func TestShipmentCountersGolden(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 200, Seed: 31})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 3, TwoCompFrac: 0.3, Seed: 32})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.25, Seed: 33, Kinds: []gen.NoiseKind{gen.AttributeNoise, gen.RepresentationalNoise}})
	b := NewBundle(g, set)
	frag := fragment.Partition(g, 4, fragment.Hash)
	opt := Options{N: 4, NoReduce: true}
	for _, tc := range []struct {
		engine      string
		want        shipCounters
		modeledComm time.Duration
		violations  int
	}{
		{"repVal", shipCounters{bytes: 1104, messages: 8, rounds: 3, maxReceived: 1008}, 1508063, 21},
		{"disVal", shipCounters{bytes: 22873, messages: 17, rounds: 4, maxReceived: 10576}, 2084608, 21},
	} {
		for _, round := range []string{"cold", "warm"} {
			var res *Result
			var err error
			if tc.engine == "repVal" {
				res, err = RepValB(context.Background(), b, opt, nil)
			} else {
				res, err = DisValB(context.Background(), b, frag, opt, nil)
			}
			if err != nil {
				t.Fatalf("%s %s: %v", tc.engine, round, err)
			}
			if len(res.Violations) != tc.violations {
				t.Fatalf("%s %s: %d violations, fixture expects %d", tc.engine, round, len(res.Violations), tc.violations)
			}
			if got := counters(res); got != tc.want {
				t.Errorf("%s %s: counters %+v, want %+v", tc.engine, round, got, tc.want)
			}
			if got := res.ModeledComm(); got != tc.modeledComm {
				t.Errorf("%s %s: ModeledComm %d ns, want %d ns", tc.engine, round, got, tc.modeledComm)
			}
		}
	}
}

// TestModeledCommArithmetic is the pricing half of the cost model (the
// counter half is cluster's TestMaxReceivedCounters): one roundLatency per
// round, plus the busiest receiver's bytes over the link bandwidth.
func TestModeledCommArithmetic(t *testing.T) {
	for _, tc := range []struct {
		rounds, maxReceived int64
		want                time.Duration
	}{
		{0, 0, 0},
		{1, 0, 500 * time.Microsecond},
		{4, 0, 2 * time.Millisecond},
		{0, 125_000_000, time.Second},
		{0, 125_000, time.Millisecond},
		{2, 1_250_000, time.Millisecond + 10*time.Millisecond},
	} {
		r := &Result{Rounds: tc.rounds, MaxReceived: tc.maxReceived}
		if got := r.ModeledComm(); got != tc.want {
			t.Errorf("%d rounds, %d bytes: ModeledComm = %v, want %v", tc.rounds, tc.maxReceived, got, tc.want)
		}
	}
	r := &Result{EstimateSpan: time.Millisecond, DetectSpan: 2 * time.Millisecond, Rounds: 2}
	if got := r.ModeledTime(); got != 4*time.Millisecond {
		t.Errorf("ModeledTime = %v, want the two spans plus two rounds", got)
	}
}
