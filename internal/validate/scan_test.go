package validate

import (
	"context"
	"errors"
	"sync"
	"testing"

	"gfd/internal/cluster"
	"gfd/internal/core"
)

// refuseFirstSink refuses the first emission and accepts every later one,
// counting them.
type refuseFirstSink struct {
	mu            sync.Mutex
	refused       bool
	acceptedAfter int
}

func (s *refuseFirstSink) Emit(int, Violation) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.refused {
		s.refused = true
		return false
	}
	s.acceptedAfter++
	return true
}

// TestScanRulesStopsEveryWorker: one refused emission stops every worker,
// even on a sink that would accept everything after it. Each of the other
// workers may have one emission in flight when the stop latches.
func TestScanRulesStopsEveryWorker(t *testing.T) {
	_, b := cancelWorkload(t)
	const n = 4
	sink := &refuseFirstSink{}
	err := ScanRules(context.Background(), b, b.Set().Rules(), n, sink)
	if err != nil || !sink.refused || sink.acceptedAfter > n-1 {
		t.Fatalf("err %v, refused %v, %d violations accepted after the refusal", err, sink.refused, sink.acceptedAfter)
	}
}

// lanePanicSink panics on every emission on lane 0.
type lanePanicSink struct{}

func (lanePanicSink) Emit(w int, _ Violation) bool {
	if w == 0 {
		panic("sink lane 0")
	}
	return true
}

// TestSequentialPanicIsPartial: a panic in the sequential engine's one
// worker ends the run as the baselines' do, with a *PartialError whose
// failure unwraps to the recovered *cluster.WorkerError.
func TestSequentialPanicIsPartial(t *testing.T) {
	g := paperG1()
	err := DetVioB(context.Background(), NewBundle(g, core.MustNewSet(phi1())), lanePanicSink{})
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, ErrPartial) || len(pe.Failures) != 1 {
		t.Fatalf("err = %v, want a *PartialError with one failure", err)
	}
	var we *cluster.WorkerError
	if !errors.As(pe.Failures[0].Err, &we) || we.Worker != 0 || we.Unit != -1 {
		t.Fatalf("failure = %v, want worker 0's *cluster.WorkerError", pe.Failures[0].Err)
	}
}
