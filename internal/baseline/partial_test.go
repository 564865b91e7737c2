package baseline

import (
	"context"
	"errors"
	"slices"
	"testing"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/validate"
)

// laneRecorder records each worker lane's violations, in emission order,
// and panics on emits into lane dies (-1: none) — a worker death in the
// middle of a baseline run.
type laneRecorder struct {
	lanes [][]validate.Violation
	dies  int
}

func (s *laneRecorder) Emit(w int, v validate.Violation) {
	if w == s.dies {
		panic("sink lane gone")
	}
	v.Match = slices.Clone(v.Match)
	s.lanes[w] = append(s.lanes[w], v)
}

// TestBaselinesPartialOnWorkerDeath: when one worker of a baseline run
// dies, DetectB and DetectJoinsB return a *validate.PartialError whose
// every failure is that worker's recovered *cluster.WorkerError, and every
// other lane still delivers exactly what it delivers in a fault-free run.
func TestBaselinesPartialOnWorkerDeath(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 120, Seed: 5})
	gen.Inject(g, gen.NoiseConfig{Rate: 0.08, Seed: 6, Kinds: []gen.NoiseKind{gen.AttributeNoise}})
	for i, p := range g.NodesWithLabel("person") {
		if i%3 == 0 {
			g.SetAttr(p, "country", "country_0")
		}
	}
	var gfds []*core.GFD
	var gcfds []*GCFD
	for _, name := range []string{"a", "b", "c", "d"} {
		f := pathRule(name)
		c, _ := FromGFD(f)
		gfds, gcfds = append(gfds, f), append(gcfds, c)
	}
	b := validate.NewBundle(g, core.MustNewSet(gfds...))
	rel := Encode(g.Freeze())
	const n, dead = 4, 1
	for _, tc := range []struct {
		name string
		run  func(validate.Sink) error
	}{
		{"DetectB", func(s validate.Sink) error { return DetectB(context.Background(), b, gcfds, n, s) }},
		{"DetectJoinsB", func(s validate.Sink) error { return DetectJoinsB(context.Background(), b, rel, n, s) }},
	} {
		want := &laneRecorder{lanes: make([][]validate.Violation, n), dies: -1}
		if err := tc.run(want); err != nil {
			t.Fatalf("%s fault-free: %v", tc.name, err)
		}
		if len(want.lanes[dead]) == 0 {
			t.Fatalf("%s: lane %d emits nothing, so no worker would die", tc.name, dead)
		}
		got := &laneRecorder{lanes: make([][]validate.Violation, n), dies: dead}
		err := tc.run(got)
		var pe *validate.PartialError
		if !errors.Is(err, validate.ErrPartial) || !errors.As(err, &pe) || len(pe.Failures) == 0 {
			t.Fatalf("%s: err = %v, want a *validate.PartialError", tc.name, err)
		}
		for _, f := range pe.Failures {
			var we *cluster.WorkerError
			if !errors.As(f.Err, &we) || we.Worker != dead || f.Unit != -1 {
				t.Errorf("%s: failure %+v, want worker %d's *cluster.WorkerError", tc.name, f, dead)
			}
		}
		for w := range n {
			if w != dead && !slices.EqualFunc(got.lanes[w], want.lanes[w], func(a, b validate.Violation) bool { return a.Key() == b.Key() }) {
				t.Errorf("%s: lane %d delivered %d violations, %d fault-free", tc.name, w, len(got.lanes[w]), len(want.lanes[w]))
			}
		}
		if len(got.lanes[dead]) != 0 {
			t.Errorf("%s: the dead lane recorded %d violations", tc.name, len(got.lanes[dead]))
		}
	}
}
