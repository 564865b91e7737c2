package dist

// Scheduler conformance: one table of fault shapes, run against both
// executors of the one unit scheduler — goroutine slots (validate.RepValB)
// and process slots (DetectB) — over the same bundle, asserting the same
// invariants on both. A shape names its fault per executor (a goroutine
// slot dies by panic, a process slot by exit) and, where the executors
// legitimately differ (only the process fleet has a fallback to degrade
// to), the outcome per executor.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fault"
	"gfd/internal/validate"
)

type executorKind int

const (
	goroutineSlots executorKind = iota
	processSlots
)

func (k executorKind) String() string { return [...]string{"goroutines", "processes"}[k] }

// outcome is what a shape must end in.
type outcome int

const (
	complete  outcome = iota // nil error, violation set ≡ fault-free, every unit succeeded
	partial                  // ErrPartial, violations ⊆ fault-free, honest census
	stopped                  // pull consumer stopped after one: context.Canceled, no more than the pipe holds
	cancelled                // ctx cancelled at the first emission: context.Canceled
)

type shape struct {
	name string
	// plan builds the fault plan for an executor kind.
	plan func(k executorKind) *fault.Plan
	// tune adjusts the options (retry budget, deadline, respawn).
	tune func(k executorKind, opt *validate.Options)
	want func(k executorKind) outcome
	// cause, for partial outcomes, is what the error must unwrap to besides
	// ErrPartial: a *cluster.WorkerError (as) and/or a sentinel (is).
	workerErr func(k executorKind) bool
	sentinel  error
	// deaths reports whether at least one slot must have died.
	deaths func(k executorKind) bool
	// census, if set, must also hold of the run's census and the number
	// of violations delivered.
	census func(k executorKind, c validate.Completeness, delivered int) bool
	// processesOnly marks a shape goroutine slots cannot take.
	processesOnly bool
}

func always(o outcome) func(executorKind) outcome { return func(executorKind) outcome { return o } }
func yes(executorKind) bool                       { return true }

func kill(k executorKind, p *fault.Plan, w, nth int) *fault.Plan {
	if k == processSlots {
		return p.KillProcess(w, nth)
	}
	return p.KillWorker(w, nth)
}

var shapes = []shape{
	{
		name:   "slot dies on its first unit",
		plan:   func(k executorKind) *fault.Plan { return kill(k, fault.NewPlan(1), 1, 0) },
		want:   always(complete),
		deaths: yes,
	},
	{
		name:   "slot dies mid-queue",
		plan:   func(k executorKind) *fault.Plan { return kill(k, fault.NewPlan(2), 2, 3) },
		want:   always(complete),
		deaths: yes,
	},
	{
		// A goroutine slot abandons the attempt cooperatively and survives;
		// a process slot is killed at the deadline. Every armed process
		// stalls the unit once (each child arms its own copy of the plan),
		// so the budget must outlast the fleet for the retry to land on a
		// process that already stalled — or on an unarmed replacement.
		name: "straggler past UnitDeadline",
		plan: func(executorKind) *fault.Plan {
			return fault.NewPlan(3).DelayUnit(busyQueue(0)[0], 800*time.Millisecond)
		},
		tune: func(_ executorKind, opt *validate.Options) {
			opt.UnitDeadline = 400 * time.Millisecond
			opt.Retry.Max = fxWorkers + 1
		},
		want:   always(complete),
		deaths: func(k executorKind) bool { return k == processSlots },
		census: func(_ executorKind, c validate.Completeness, _ int) bool { return c.Retries >= 1 },
	},
	{
		// Only the process fleet has somewhere to degrade to. Goroutine
		// slots end with nothing done: no unit succeeded, nothing was
		// delivered, and every slot died.
		name: "every slot dead before progress",
		plan: func(k executorKind) *fault.Plan {
			p := fault.NewPlan(4)
			for w := 0; w < fxWorkers; w++ {
				kill(k, p, w, 0)
			}
			return p
		},
		tune: func(_ executorKind, opt *validate.Options) { opt.Dist.MaxRespawns = -1 },
		want: func(k executorKind) outcome {
			if k == processSlots {
				return complete
			}
			return partial
		},
		workerErr: yes,
		deaths:    func(k executorKind) bool { return k == goroutineSlots }, // the degraded rerun's census is clean
		census: func(k executorKind, c validate.Completeness, delivered int) bool {
			return k == processSlots || c.Succeeded == 0 && delivered == 0 && c.WorkerDeaths == fxWorkers
		},
	},
	{
		// Exactly the dead slot's unit fails, on its one attempt; the
		// units queued behind it still run on the survivors.
		name: "retries disabled, one death",
		plan: func(k executorKind) *fault.Plan { return kill(k, fault.NewPlan(5), 1, 0) },
		tune: func(_ executorKind, opt *validate.Options) {
			opt.Retry = validate.Retry{Max: -1}
			opt.Dist.MaxRespawns = -1
		},
		want:      always(partial),
		workerErr: yes,
		deaths:    yes,
		census: func(_ executorKind, c validate.Completeness, _ int) bool {
			return c.Failed == 1 && c.WorkerDeaths == 1 && c.Retries == 0
		},
	},
	{
		name: "retries disabled, one straggler",
		plan: func(executorKind) *fault.Plan {
			return fault.NewPlan(6).DelayUnit(busyQueue(0)[0], 800*time.Millisecond)
		},
		tune: func(_ executorKind, opt *validate.Options) {
			opt.Retry = validate.Retry{Max: -1}
			opt.UnitDeadline = 400 * time.Millisecond
		},
		want:      always(partial),
		workerErr: func(k executorKind) bool { return k == processSlots },
		sentinel:  context.DeadlineExceeded,
		deaths:    func(k executorKind) bool { return k == processSlots },
	},
	{
		// Windowed dispatch: by its sixth unit a process has answered five
		// whose DONEs still sit in its write buffer (more input was already
		// there). They die with it; the coordinator sees the stream end on
		// the first of them and everything unanswered runs again, once.
		name:   "slot dies with answered units unflushed",
		plan:   func(k executorKind) *fault.Plan { return kill(k, fault.NewPlan(7), 2, 5) },
		want:   always(complete),
		deaths: yes,
	},
	{
		// The torn frame is the answer to a unit deep in the first window:
		// every whole frame before it must be consumed first.
		name: "torn frame deep in a window",
		plan: func(k executorKind) *fault.Plan {
			if k == processSlots {
				return fault.NewPlan(8).TruncateMessage(2, 9)
			}
			return fault.NewPlan(8).KillWorker(2, 8)
		},
		want:   always(complete),
		deaths: yes,
	},
	{
		// Six consecutive units of one queue each take 0.6 × UnitDeadline.
		// All six ASSIGNs go out in one window; a deadline clock started at
		// the write would expire on the second. It starts when a unit becomes
		// the head of the window, so nothing is killed.
		name: "six slow units queued back to back",
		plan: func(executorKind) *fault.Plan {
			p := fault.NewPlan(9)
			for _, ui := range busyQueue(1)[8:14] {
				p.DelayUnit(ui, 120*time.Millisecond)
			}
			return p
		},
		tune:   func(_ executorKind, opt *validate.Options) { opt.UnitDeadline = 200 * time.Millisecond },
		want:   always(complete),
		deaths: func(executorKind) bool { return false },
	},
	{
		// The straggler is third in its window. The process is killed at the
		// deadline — charged to the straggler alone, two units having been
		// answered before it — and the units behind it, shipped but never
		// started as far as the scheduler knows, run elsewhere exactly once.
		name: "straggler third in the window",
		plan: func(executorKind) *fault.Plan {
			return fault.NewPlan(10).DelayUnit(busyQueue(1)[2], 800*time.Millisecond)
		},
		tune: func(_ executorKind, opt *validate.Options) {
			opt.UnitDeadline = 400 * time.Millisecond
			opt.Retry.Max = fxWorkers + 1
		},
		want:   always(complete),
		deaths: func(k executorKind) bool { return k == processSlots },
	},
	{
		// Slots die after delivering: a goroutine slot at a match panic in
		// a unit that has emitted violations (the fixture makes about 70
		// match crossings), a process in the middle of its fourth frame,
		// after the frames before it arrived whole. A retry must skip
		// exactly what its first attempt delivered.
		name: "death after partial delivery",
		plan: func(k executorKind) *fault.Plan {
			if k == processSlots {
				return fault.NewPlan(11).TruncateMessage(2, 3)
			}
			return fault.NewPlan(11).KillWorker(1, 1).PanicAt(fault.Match, 50)
		},
		want:   always(complete),
		deaths: yes,
		census: func(_ executorKind, c validate.Completeness, _ int) bool { return c.Retries >= 1 },
	},
	{
		// The fleet degrades to the in-process engine over the same
		// partition.
		name: "no worker process can start",
		tune: func(_ executorKind, opt *validate.Options) {
			opt.Dist.Command = []string{"/nonexistent/gfd-dist-worker"}
		},
		want:          always(complete),
		deaths:        func(executorKind) bool { return false }, // the degraded run's census is clean
		processesOnly: true,
	},
	{
		// A sink no longer refuses: the consumer of the pull pipeline
		// takes the first violation and cancels the run, draining nothing
		// until the engine returns, so every slot still emitting blocks on
		// the full pipe until the cancel unwinds it.
		name: "sink refuses the first violation",
		want: always(stopped),
	},
	{name: "context cancelled mid-run", want: always(cancelled)},
	{
		name: "context cancelled mid-run, slot 0 dead on its first unit",
		plan: func(k executorKind) *fault.Plan { return kill(k, fault.NewPlan(12), 0, 0) },
		want: always(cancelled),
	},
}

func TestSchedulerConformance(t *testing.T) {
	f := setup(t)
	for _, sh := range shapes {
		for _, k := range []executorKind{goroutineSlots, processSlots} {
			if sh.processesOnly && k == goroutineSlots {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", sh.name, k), func(t *testing.T) {
				goroutinesBefore := runtime.NumGoroutine()
				opt := distOpt(f, nil)
				opt.N = fxWorkers
				if sh.plan != nil {
					opt.Inject = sh.plan(k)
				}
				if sh.tune != nil {
					sh.tune(k, &opt)
				}
				want := sh.want(k)

				// A recording sink, so exactly-once is checked on what was
				// delivered, not on a set that would hide a duplicate.
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var mu sync.Mutex
				var got validate.Report
				sink := validate.Callback(func(v validate.Violation) {
					mu.Lock()
					defer mu.Unlock()
					got = append(got, v)
					if want == cancelled {
						cancel()
					}
				})

				var runSink validate.Sink = sink
				var taken func() validate.Report
				if want == stopped {
					ctx, runSink, taken = stopAfterFirst(ctx, opt.N)
				}

				var res *validate.Result
				var err error
				if k == processSlots {
					res, err = DetectB(ctx, f.b, opt, runSink)
				} else {
					res, err = validate.RepValB(ctx, f.b, opt, runSink)
				}
				if taken != nil {
					got = taken()
				}

				seen := make(map[string]bool, len(got))
				for _, v := range got {
					if seen[v.Key()] {
						t.Fatalf("%v: violation %s delivered twice", opt.Inject, v.Key())
					}
					seen[v.Key()] = true
				}
				inBase := make(map[string]bool, len(f.base))
				for _, v := range f.base {
					inBase[v.Key()] = true
				}
				for key := range seen {
					if !inBase[key] {
						t.Fatalf("%v: reported %s, absent from the fault-free set", opt.Inject, key)
					}
				}

				c := res.Completeness
				if c.Units != res.Units || c.Attempted > c.Units || c.Succeeded+c.Failed > c.Units || c.Succeeded > c.Attempted {
					t.Fatalf("%v: census does not add up: %+v", opt.Inject, c)
				}
				switch want {
				case complete:
					if err != nil {
						t.Fatalf("%v: %v", opt.Inject, err)
					}
					if len(got) != len(f.base) {
						t.Fatalf("%v: delivered %d violations, fault-free run has %d", opt.Inject, len(got), len(f.base))
					}
					if !c.Complete() || c.Failed != 0 || c.Attempted != c.Units {
						t.Fatalf("%v: census not complete: %+v", opt.Inject, c)
					}
				case partial:
					if !errors.Is(err, validate.ErrPartial) {
						t.Fatalf("%v: err = %v, want ErrPartial", opt.Inject, err)
					}
					var pe *validate.PartialError
					if !errors.As(err, &pe) || len(pe.Failures) != c.Failed || c.Failed == 0 {
						t.Fatalf("%v: %d failures listed, census %+v", opt.Inject, len(pe.Failures), c)
					}
					if c.Succeeded+c.Failed != c.Units {
						t.Fatalf("%v: a finished partial run leaves units unresolved: %+v", opt.Inject, c)
					}
					retries := 0
					for _, uf := range pe.Failures {
						if uf.Attempts > 1+max(opt.Retry.Max, 0) {
							t.Fatalf("%v: unit %d consumed %d attempts, budget %d", opt.Inject, uf.Unit, uf.Attempts, 1+max(opt.Retry.Max, 0))
						}
						retries += max(uf.Attempts-1, 0)
					}
					if c.Retries < retries {
						t.Fatalf("%v: census counts %d retries, failed units alone consumed %d", opt.Inject, c.Retries, retries)
					}
					var we *cluster.WorkerError
					if sh.workerErr != nil && sh.workerErr(k) && !errors.As(err, &we) {
						t.Fatalf("%v: %v does not unwrap to a *cluster.WorkerError", opt.Inject, err)
					}
					if sh.sentinel != nil && !errors.Is(err, sh.sentinel) {
						t.Fatalf("%v: %v does not unwrap to %v", opt.Inject, err, sh.sentinel)
					}
				case stopped:
					if !errors.Is(err, context.Canceled) || len(got) == 0 || len(got) > 1+pipeHolds(opt.N) {
						t.Fatalf("stopped run returned %v after %d deliveries, want context.Canceled after 1 to %d",
							err, len(got), 1+pipeHolds(opt.N))
					}
					if c.Complete() || c.Failed != 0 {
						t.Fatalf("stopped run claims completeness or failures: %+v", c)
					}
				case cancelled:
					if !errors.Is(err, context.Canceled) || len(got) == 0 {
						t.Fatalf("cancelled run returned %v after %d emissions", err, len(got))
					}
					if c.Complete() || c.Failed != 0 {
						// An attempt that returns after the cancel counts as
						// neither succeeded nor failed, so some unit is left.
						t.Fatalf("cancelled run claims completeness or failures: %+v", c)
					}
				}
				if sh.deaths != nil {
					if sh.deaths(k) && c.WorkerDeaths == 0 {
						t.Fatalf("%v: the fault never killed a slot: %+v", opt.Inject, c)
					}
					if !sh.deaths(k) && c.WorkerDeaths != 0 {
						t.Fatalf("%v: a slot died where none should: %+v", opt.Inject, c)
					}
				}
				if sh.census != nil && !sh.census(k, c, len(got)) {
					t.Fatalf("%v: census %+v after %d deliveries breaks the shape", opt.Inject, c, len(got))
				}
				if c.WorkerDeaths > 0 && want == complete && c.RecoveryRounds == 0 {
					t.Fatalf("%v: a slot died yet no recovery round ran: %+v", opt.Inject, c)
				}

				requireSettled(t, goroutinesBefore)
			})
		}
	}
}

// stopAfterFirst is a pull consumer that has seen enough: a pipe sink of
// one-violation buffers for workers slots, whose consumer takes the first
// violation and cancels the returned context. Nothing else is drained
// until taken, called after the engine returns, closes the pipe and
// returns the first violation and what the pipe still held.
func stopAfterFirst(parent context.Context, workers int) (context.Context, validate.Sink, func() validate.Report) {
	ctx, cancel := context.WithCancel(parent)
	pipe := validate.NewPipeSink(ctx, workers, 1)
	first := make(chan validate.Violation, 1)
	go func() {
		defer cancel()
		defer close(first)
		if v, ok := <-pipe.Out(); ok {
			first <- v
		}
	}()
	return ctx, pipe, func() validate.Report {
		pipe.Close()
		var got validate.Report
		for v := range first {
			got = append(got, v)
		}
		for v := range pipe.Out() {
			got = append(got, v)
		}
		return got
	}
}

// pipeHolds is how many violations stopAfterFirst's pipe buffers for
// workers slots (NewPipeSink's (workers + 1) × buffer, buffer 1).
func pipeHolds(workers int) int { return workers + 1 }

// requireSettled fails unless the goroutine count returns to its pre-run
// level and this process has no child left — running or zombie.
func requireSettled(t *testing.T, goroutinesBefore int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		kids := childProcesses(t)
		if runtime.NumGoroutine() <= goroutinesBefore && len(kids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leak: %d goroutines (was %d), child processes %v\n%s",
				runtime.NumGoroutine(), goroutinesBefore, kids, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// childProcesses lists the PIDs whose parent is this process (Linux procfs;
// elsewhere the check is skipped by returning nothing).
func childProcesses(t *testing.T) []int {
	t.Helper()
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	me := strconv.Itoa(os.Getpid())
	var kids []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		// pid (comm) state ppid ...; comm may contain spaces, so split after ')'.
		rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) >= 2 && fields[1] == me {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids
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
