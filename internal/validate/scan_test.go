package validate

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

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

// latchExec is an Executor of three slots with one unit each: once slots 1
// and 2 have started their attempts, slot 0 emits one violation and
// releases them; slot 1 then emits one, and slot 2 returns without
// emitting.
type latchExec struct {
	started  sync.WaitGroup // slots 1 and 2
	released chan struct{}
}

func (e *latchExec) Start(int) error { return nil }
func (e *latchExec) Close()          {}

func (e *latchExec) Run(w int, _ []int, _ func(int) int64, emit func(Violation) bool) error {
	if w == 0 {
		e.started.Wait()
		emit(Violation{Rule: "r"})
		close(e.released)
		return nil
	}
	e.started.Done()
	<-e.released
	if w == 1 {
		emit(Violation{Rule: "r"})
	}
	return nil
}

func (e *latchExec) Superstep(task func(w int)) []time.Duration {
	busy, _ := cluster.Fan(3, 3, task) // every slot at once: 1 and 2 wait on 0
	return busy
}

// TestSchedulerStopLatches: once the sink refuses a violation, no slot's
// later emission reaches it, and only the unit whose attempt ran to its end
// counts as succeeded: slot 0's was refused, slot 1's was cut at its
// emission, and slot 2's finished after the stop latched.
func TestSchedulerStopLatches(t *testing.T) {
	sink, exec := &refuseFirstSink{}, &latchExec{released: make(chan struct{})}
	exec.started.Add(2)
	run := &detectRun{ctx: context.Background(), cl: cluster.New(3), exec: exec,
		units: make([]workUnit, 3), opt: Options{N: 3}.Normalized(), sink: NewLaneSink(sink)}
	_, comp, perr := run.run([][]int{{0}, {1}, {2}})
	if perr != nil || !sink.refused || sink.acceptedAfter != 0 {
		t.Fatalf("err %v, refused %v, %d violations accepted after the refusal", perr, sink.refused, sink.acceptedAfter)
	}
	if comp.Attempted != 3 || comp.Succeeded != 1 || comp.Failed != 0 {
		t.Fatalf("census %+v: want 3 attempted, 1 succeeded (slot 2's), 0 failed", comp)
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
