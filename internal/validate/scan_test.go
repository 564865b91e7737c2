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

// probeStride bounds the candidate tries — so the matches, so the
// emissions — a worker makes between a cancel and its noticing it: the
// matcher consults Options.Halt every 64 tries, and the halt probe reads
// the context every cancelStride calls.
const probeStride = 64 * cancelStride

// laneCounter counts each lane's emissions, and cancels the run's context
// at the first one.
type laneCounter struct {
	mu     sync.Mutex
	cancel context.CancelFunc
	lanes  map[int]int
}

func (s *laneCounter) Emit(w int, _ Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cancel()
	s.lanes[w]++
}

// TestScanRulesStopsEveryWorker: a cancel from inside one emission stops
// every worker within one probe stride, even on a sink that takes
// everything after it, and the run returns the context's error.
func TestScanRulesStopsEveryWorker(t *testing.T) {
	_, b := cancelWorkload(t)
	const n = 4
	full := NewCollectSink(n)
	if err := ScanRules(context.Background(), b, b.Set().Rules(), n, full); err != nil {
		t.Fatal(err)
	}
	total := len(full.Report())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &laneCounter{cancel: cancel, lanes: map[int]int{}}
	err := ScanRules(ctx, b, b.Set().Rules(), n, sink)
	emitted := 0
	for w, k := range sink.lanes {
		if k > probeStride+1 {
			t.Errorf("worker %d emitted %d violations, past one probe stride of the cancel", w, k)
		}
		emitted += k
	}
	if !errors.Is(err, context.Canceled) || emitted == 0 || emitted >= total/2 {
		t.Fatalf("err %v after %d of %d violations, want context.Canceled after a few", err, emitted, total)
	}
}

// cancelExec is an Executor of three slots with one unit each: once slots
// 1 and 2 have started their attempts, slot 0 emits one violation, cancels
// the run's context and releases them; slot 1 then emits one, and every
// attempt returns nil, as an attempt that ran to its end before a probe
// saw the cancel does.
type cancelExec struct {
	cancel   context.CancelFunc
	started  sync.WaitGroup // slots 1 and 2
	released chan struct{}
}

func (e *cancelExec) Start(int) error { return nil }
func (e *cancelExec) Close()          {}

func (e *cancelExec) Run(w int, _ []int, _ func(int) int64, emit func(Violation)) error {
	if w == 0 {
		e.started.Wait()
		emit(Violation{Rule: "r"})
		e.cancel()
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

func (e *cancelExec) Superstep(task func(w int)) []time.Duration {
	busy, _ := cluster.Fan(3, 3, task) // every slot at once: 1 and 2 wait on 0
	return busy
}

// TestSchedulerStopLatches: once the run's context is cancelled, an
// attempt that returns counts as neither succeeded nor failed, as the
// units the run never reached do — even one that returns nil — so slot 0's
// attempt, which cancelled, and slots 1 and 2's, mid-attempt then, all
// count as attempted only.
func TestSchedulerStopLatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := &cancelExec{cancel: cancel, released: make(chan struct{})}
	exec.started.Add(2)
	sink := NewCollectSink(3)
	run := &detectRun{ctx: ctx, cl: cluster.New(3), exec: exec,
		units: make([]Unit, 3), opt: Options{N: 3}.Normalized(), sink: sink}
	_, comp, perr := run.run([][]int{{0}, {1}, {2}})
	if perr != nil {
		t.Fatalf("err %v, want none: a cancelled run reports the context's error", perr)
	}
	if comp.Attempted != 3 || comp.Succeeded != 0 || comp.Failed != 0 {
		t.Fatalf("census %+v: want 3 attempted, 0 succeeded, 0 failed", comp)
	}
}

// lanePanicSink panics on every emission on lane 0.
type lanePanicSink struct{}

func (lanePanicSink) Emit(w int, _ Violation) {
	if w == 0 {
		panic("sink lane 0")
	}
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
