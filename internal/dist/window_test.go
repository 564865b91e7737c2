package dist

// Tests of the dispatch window itself — the mechanism, independent of wall
// clock: how many flushes a fault-free run costs, that neither a violation
// flood nor an oversized ASSIGN can wedge the two pipes against each other,
// and that a stopped run kills what is mid-window instead of draining it.

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/testutil"
	"gfd/internal/validate"
)

// spy wraps the process fleet a run schedules onto, so a test can look at
// it: the round-0 queue of every slot, and the fleet as Close finds it.
type spy struct {
	*fleet
	mu      sync.Mutex
	queues  [][]int        // per slot: the queue its first Run call saw
	onClose func(f *fleet) // called before the fleet's own Close
}

func (s *spy) Run(w int, queue []int, skip func(int) int64, emit func(validate.Violation)) error {
	s.mu.Lock()
	if s.queues[w] == nil {
		s.queues[w] = slices.Clone(queue)
	}
	s.mu.Unlock()
	return s.fleet.Run(w, queue, skip, emit)
}

func (s *spy) Close() {
	if s.onClose != nil && !s.fleet.closed {
		s.onClose(s.fleet)
	}
	s.fleet.Close()
}

// detectSpied is DetectB with the fleet left in the caller's hands.
func detectSpied(ctx context.Context, b *validate.Bundle, opt validate.Options, sink validate.Sink, onClose func(*fleet)) (*validate.Result, *spy, error) {
	m, err := manifestFor(opt)
	if err != nil {
		return nil, nil, err
	}
	opt.N = m.Workers
	var s *spy
	res, err := validate.DetectOver(ctx, b, opt, sink, func(plan *validate.DistPlan, cl *cluster.Cluster) (validate.Executor, error) {
		f, err := newFleet(ctx, b.Topo(), m, plan, opt, cl)
		if err != nil {
			return nil, err
		}
		s = &spy{fleet: f, queues: make([][]int, m.Workers), onClose: onClose}
		return s, nil
	})
	return res, s, err
}

// coordinatorFlushes sums the flushes of every slot's (last) frame writer.
func coordinatorFlushes(f *fleet) (n int) {
	for w := range f.procs {
		if fw := f.procs[w].fw; fw != nil {
			n += fw.flushes
		}
	}
	return n
}

var (
	fxBusy      [][]int
	fxQueuesErr error
	fxQueueOnce sync.Once
)

// busyQueue is slot w's round-0 queue under the shared fixture's plan
// without its idle units — the units with pivot candidates, the ones a
// process slot is actually sent (DistPlan.Idle) — learned from one
// fault-free spied run. The plan is memoized on the bundle per worker
// count, so goroutine slots drain the same queues.
func busyQueue(w int) []int {
	learnQueues()
	return fxBusy[w]
}

func learnQueues() {
	fxQueueOnce.Do(func() {
		_, s, err := detectSpied(context.Background(), fx.b, distOpt(&fx), nil, nil)
		if err != nil {
			fxQueuesErr = err
			return
		}
		fxBusy = make([][]int, len(s.queues))
		for w, q := range s.queues {
			for _, ui := range q {
				if !s.fleet.plan.Idle(ui) {
					fxBusy[w] = append(fxBusy[w], ui)
				}
			}
		}
	})
	if fxQueuesErr != nil {
		panic(fxQueuesErr)
	}
}

// TestWindowAmortizesFlushes is the mechanism's own regression guard: a
// fault-free run must cost the coordinator at most one flush per eight
// units, HELLO included.
func TestWindowAmortizesFlushes(t *testing.T) {
	f := setup(t)
	res, s, err := detectSpied(context.Background(), f.b, distOpt(f), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("violation set diverged (%d vs %d)", len(res.Violations), len(f.base))
	}
	if res.Units < 2000 {
		t.Fatalf("fixture schedules %d units; the bound needs at least 2000 to mean anything", res.Units)
	}
	if got := coordinatorFlushes(s.fleet); got > res.Units/8 {
		t.Fatalf("%d coordinator flushes for %d units, want at most %d", got, res.Units, res.Units/8)
	}
}

// starFixture is a hand-built workload for the window's two hard cases, on
// two shards, every unit one star pivoted on its hub:
//
//   - two `hub` stars of 120 leaves under a rule every ordered leaf pair
//     violates: each answers with 120·119 violations, some 500 KiB of VIO
//     frames. They are the heaviest units, so LPT heads each slot's queue
//     with one — the flood arrives with a full window behind it;
//   - one `big` star whose 100 leaves carry 1.5 KiB attributes, under a rule
//     nothing violates: lighter than the floods, so it queues behind one,
//     with a halo larger than windowBytes whichever slot it lands on;
//   - 400 three-leaf `hub` stars to fill the windows.
func starFixture(t *testing.T) (b *validate.Bundle, manifest string, base validate.Report) {
	t.Helper()
	g := graph.New(0, 0)
	star := func(hub, leaf, val string, n int) {
		h := g.AddNode(hub, graph.Attrs{"val": hub})
		for i := 0; i < n; i++ {
			g.MustAddEdge(h, g.AddNode(leaf, graph.Attrs{"val": fmt.Sprint(val, i)}), "has")
		}
	}
	for i := 0; i < 400; i++ {
		star("hub", "leaf", "leaf", 3)
	}
	star("hub", "leaf", "leaf", 120)
	star("hub", "leaf", "leaf", 120)
	star("big", "bigleaf", strings.Repeat("fat", 512), 100)
	big := g.NodesWithLabel("big")[0]
	g.MustAddEdge(big, g.AddNode("tag", graph.Attrs{"val": "t"}), "has")

	set, err := core.ParseRules(strings.NewReader(`
gfd flood {
  node x hub
  node y leaf
  node z leaf
  edge x has y
  edge x has z
  then y.val = "never"
}
gfd wide {
  node x big
  node y bigleaf
  node z tag
  edge x has y
  edge x has z
  then z.val = "t"
}
`))
	if err != nil {
		t.Fatal(err)
	}
	manifest, err = WriteShards(g.Freeze(), 2, fragment.Hash, t.TempDir(), "star")
	if err != nil {
		t.Fatal(err)
	}
	b = validate.NewBundle(g, set)
	ref, err := validate.RepValB(context.Background(), b, validate.Options{N: 2, SplitThreshold: -1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b, manifest, ref.Violations
}

// TestWindowNeverDeadlocks: the coordinator writes ASSIGNs while the worker
// writes answers, each into a 64 KiB pipe. Neither a worker with far more
// than a pipe's worth of violations to report behind a full window, nor an
// ASSIGN far larger than a pipe, may leave both sides blocked in write.
func TestWindowNeverDeadlocks(t *testing.T) {
	b, manifest, base := starFixture(t)
	// The fixture must be the hard case: more than 256 KiB of violation
	// frames, and a halo that outweighs windowBytes whichever slot gets it.
	if vioBytes := len(encodeVio(nil, vioMsg{vios: base})); vioBytes <= 256<<10 {
		t.Fatalf("fixture yields %d B of violations, want more than 256 KiB", vioBytes)
	}
	m, err := LoadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < m.Workers; w++ {
		foreign := 0
		for _, v := range b.Topo().Graph().NodesWithLabel("bigleaf") {
			if m.Owner(v) != w {
				foreign++
			}
		}
		if foreign*3*512 <= windowBytes {
			t.Fatalf("slot %d would be shipped %d fat leaves, too few to outweigh windowBytes", w, foreign)
		}
	}
	goroutinesBefore := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	opt := validate.Options{SplitThreshold: -1, Dist: &validate.DistOptions{ManifestPath: manifest}}
	res, s, err := detectSpied(ctx, b, opt, nil, nil)
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("run did not finish within 10s: coordinator and worker are wedged against each other")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violations.Equal(base) {
		t.Fatalf("violation set diverged (%d vs %d)", len(res.Violations), len(base))
	}
	for w, q := range s.queues {
		if len(q) <= windowUnits {
			t.Fatalf("slot %d was handed %d units, too few to put a full window behind the flood", w, len(q))
		}
	}
	testutil.RequireSettled(t, goroutinesBefore)
}

// TestStreamStopMidWindow: when the run stops at the first violation —
// its pull consumer has seen enough, or its context is cancelled — slots
// still have whole windows in flight. Close must kill those processes
// without writing to them, and leak none.
func TestStreamStopMidWindow(t *testing.T) {
	f := setup(t)
	for _, tc := range []struct {
		name string
		// stop derives the run's context and sink from ctx, and returns
		// what to call once the run has returned.
		stop func(ctx context.Context, cancel context.CancelFunc) (context.Context, validate.Sink, func())
	}{
		{"sink refuses", func(ctx context.Context, _ context.CancelFunc) (context.Context, validate.Sink, func()) {
			ctx, pipe, taken := testutil.StopAfterFirst(ctx, fxWorkers)
			// The emitting slot waits for the consumer's cancel, so the
			// stop lands while the window that carried the first
			// violation is still in flight.
			sink := testutil.Callback(func(v validate.Violation) {
				pipe.Emit(0, v)
				<-ctx.Done()
			})
			return ctx, sink, func() { taken() }
		}},
		{"context cancelled", func(ctx context.Context, cancel context.CancelFunc) (context.Context, validate.Sink, func()) {
			return ctx, testutil.Callback(func(validate.Violation) { cancel() }), func() {}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			goroutinesBefore := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx, sink, after := tc.stop(ctx, cancel)
			flushed := map[int]int{} // slots mid-window at Close -> their flush count then
			_, s, err := detectSpied(ctx, f.b, distOpt(f), sink, func(fl *fleet) {
				for w := range fl.procs {
					p := &fl.procs[w]
					if p.cmd != nil && len(p.window) > 0 {
						flushed[w] = p.fw.flushes
					}
				}
			})
			after()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("stopped run returned %v", err)
			}
			if len(flushed) == 0 {
				t.Fatal("no slot was mid-window when the run stopped")
			}
			for w, before := range flushed {
				if got := s.fleet.procs[w].fw.flushes; got != before {
					t.Fatalf("slot %d was mid-window at Close and still got a frame: it must be killed, not drained", w)
				}
			}
			testutil.RequireSettled(t, goroutinesBefore)
		})
	}
}

// TestCloseLeavesNoChild: Close reaps every worker process, whatever state
// it is in — ready and idle, mid-window with unanswered ASSIGNs, or never
// ready at all — and leaves no child process behind.
func TestCloseLeavesNoChild(t *testing.T) {
	f := setup(t)
	sleep, err := exec.LookPath("sleep")
	if err != nil {
		t.Skip("no sleep command to stand in for a worker that never answers")
	}
	plan := fixturePlan(t, f)
	m, err := LoadManifest(f.manifest)
	if err != nil {
		t.Fatal(err)
	}
	goroutinesBefore := runtime.NumGoroutine()
	fl, err := newFleet(context.Background(), f.b.Topo(), m, plan, distOpt(f), cluster.New(m.Workers))
	if err != nil {
		t.Fatal(err)
	}
	none := func(int) int64 { return 0 }
	all := func(validate.Violation) {}
	// Slot 0 answers one unit and is left ready and idle.
	if err := fl.Start(0); err != nil {
		t.Fatal(err)
	}
	if err := fl.Run(0, busyQueue(0)[:1], none, all); err != nil {
		t.Fatal(err)
	}
	// Slot 1 answers the head of a full window; the rest stays in flight.
	if err := fl.Start(1); err != nil {
		t.Fatal(err)
	}
	if err := fl.Run(1, busyQueue(1), none, all); err != nil {
		t.Fatal(err)
	}
	// Slot 2 runs a process that reads no HELLO and sends no READY.
	fl.command = []string{sleep, "60"}
	if err := fl.Start(2); err != nil {
		t.Fatal(err)
	}
	if p := &fl.procs[0]; !p.ready || len(p.window) != 0 {
		t.Fatalf("slot 0: ready %v, %d units in flight; want ready and idle", p.ready, len(p.window))
	}
	if p := &fl.procs[1]; !p.ready || len(p.window) == 0 {
		t.Fatalf("slot 1: ready %v, %d units in flight; want ready with a window", p.ready, len(p.window))
	}
	if p := &fl.procs[2]; p.ready || p.cmd == nil {
		t.Fatal("slot 2 must be running and not ready")
	}
	fl.Close()
	for w := range fl.procs {
		if fl.procs[w].cmd != nil {
			t.Fatalf("slot %d still holds its process after Close", w)
		}
	}
	testutil.RequireSettled(t, goroutinesBefore)
}

// TestProcessSlotsAllRunAtOnce: the simulation caps goroutine slots at
// NumCPU so busy times measure compute; process slots wait on pipes and
// must not inherit that cap — every slot's task has to be running before
// any of them may finish — and the fleet reports as busy time what the
// workers themselves reported, not the waiting goroutine's wall.
func TestProcessSlotsAllRunAtOnce(t *testing.T) {
	n := 2*runtime.NumCPU() + 2
	f := &fleet{cl: cluster.New(n), procs: make([]proc, n)}
	var arrived sync.WaitGroup
	arrived.Add(n)
	all := make(chan struct{})
	go func() {
		arrived.Wait()
		close(all)
	}()
	var stuck sync.Once
	busy := f.Superstep(func(w int) {
		arrived.Done()
		select {
		case <-all:
		case <-time.After(5 * time.Second):
			stuck.Do(func() { t.Errorf("fewer than %d slot tasks were admitted at once", n) })
		}
		f.procs[w].busy += time.Duration(w+1) * time.Millisecond // what DONE frames would add
	})
	for w, b := range busy {
		if b != time.Duration(w+1)*time.Millisecond {
			t.Fatalf("slot %d busy = %v, want the %v its worker reported", w, b, time.Duration(w+1)*time.Millisecond)
		}
	}
}
