package validate_test

// Scheduler conformance: one table of fault shapes, run against both
// executors of the one unit scheduler — goroutine slots (validate.RepValB)
// and process slots (dist.DetectB) — over the same bundle, asserting the
// same invariants on both. A shape names its fault per executor (a
// goroutine slot dies by panic, through InjectSlots; a process slot by
// exit, through the interposer its FaultCommand line arms) and, where the
// executors legitimately differ (only the process fleet has a fallback to
// degrade to), the outcome per executor.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/testutil"
	"gfd/internal/validate"
)

// fxDir holds the shared fixture's shards; TestMain removes it.
var fxDir string

const fxWorkers = 4

type fixture struct {
	g        *graph.Graph
	set      *core.Set
	b        *validate.Bundle
	manifest string
	base     validate.Report // fault-free in-process reference
	err      error
}

var (
	fx     fixture
	fxOnce sync.Once
)

// setup builds the shared workload once: a noisy generated graph, mined
// rules, persisted shards and their manifest, and the in-process fault-free
// reference violation set over the identical hash partition. Its plans cut
// one class member a chunk, which gives the slot queues the length the
// shapes' unit ordinals are written against; a plan is memoized on the
// bundle when first made, so every test of the fixture sets the
// granularity.
func setup(t *testing.T) *fixture {
	t.Helper()
	validate.SetGranularity(t, 1024, 1)
	fxOnce.Do(func() {
		dir, err := os.MkdirTemp("", "gfd-conformance-")
		if err != nil {
			fx.err = err
			return
		}
		fxDir = dir
		fx = buildFixture(400, dir)
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return &fx
}

func buildFixture(scale int, dir string) fixture {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: scale, Seed: 9})
	set := gen.MineGFDs(g, gen.MineConfig{NumRules: 6, PatternSize: 4, TwoCompFrac: 0.3, Seed: 13})
	if set.Len() == 0 {
		return fixture{err: errors.New("no rules mined")}
	}
	gen.Inject(g, gen.NoiseConfig{Rate: 0.4, Seed: 11})
	mp, err := dist.WriteShards(g.Freeze(), fxWorkers, fragment.Hash, dir, "fx")
	if err != nil {
		return fixture{err: err}
	}
	b := validate.NewBundle(g, set)
	ref, err := validate.DisValB(context.Background(), b,
		fragment.Partition(g, fxWorkers, fragment.Hash), validate.Options{N: fxWorkers}, nil)
	if err != nil {
		return fixture{err: err}
	}
	if len(ref.Violations) == 0 {
		return fixture{err: errors.New("workload produced no violations; differentials would be vacuous")}
	}
	return fixture{g: g, set: set, b: b, manifest: mp, base: ref.Violations}
}

// distOpt runs the fixture's shards under tight supervision, which keeps
// 30 s pipe stalls (killed by heartbeat starvation) from dominating the
// suite's runtime.
func distOpt(f *fixture) validate.Options {
	return validate.Options{Dist: &validate.DistOptions{
		ManifestPath:      f.manifest,
		HeartbeatInterval: 50 * time.Millisecond,
		HandshakeTimeout:  2 * time.Second,
	}}
}

var (
	fxBusy     [][]int
	fxBusyOnce sync.Once
)

// busyQueue is slot w's round-0 queue under the fixture's plan at
// fxWorkers slots, without its idle units: the units with pivot
// candidates, the ones a process slot is sent an ASSIGN for, in that order.
// Goroutine slots drain the same queues.
func busyQueue(w int) []int {
	fxBusyOnce.Do(func() { fxBusy = busyQueues(fx.b, fxWorkers) })
	return fxBusy[w]
}

// busyQueues is every slot's busy round-0 queue of b's plan at n slots.
func busyQueues(b *validate.Bundle, n int) [][]int {
	opt := validate.Options{N: n}
	img, err := b.Plan(opt)
	if err != nil {
		panic(err)
	}
	cands, err := b.PlanCandidates(opt)
	if err != nil {
		panic(err)
	}
	busy := make([][]int, n)
	for w, q := range img.Assign {
		for _, ui := range q {
			if c := cands[ui]; len(c[len(c)-1]) > 0 {
				busy[w] = append(busy[w], ui)
			}
		}
	}
	return busy
}

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
	plan func(k executorKind) *validate.FaultPlan
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

func kill(k executorKind, p *validate.FaultPlan, w, nth int) *validate.FaultPlan {
	if k == processSlots {
		return p.KillProcess(w, nth)
	}
	return p.KillWorker(w, nth)
}

var shapes = []shape{
	{
		name:   "slot dies on its first unit",
		plan:   func(k executorKind) *validate.FaultPlan { return kill(k, validate.NewFaultPlan(1), 1, 0) },
		want:   always(complete),
		deaths: yes,
	},
	{
		name:   "slot dies mid-queue",
		plan:   func(k executorKind) *validate.FaultPlan { return kill(k, validate.NewFaultPlan(2), 2, 3) },
		want:   always(complete),
		deaths: yes,
	},
	{
		// A goroutine slot abandons the attempt and survives; a process
		// slot is killed at the deadline. The delay fires once a
		// run, so the retry runs undelayed.
		name: "straggler past UnitDeadline",
		plan: func(executorKind) *validate.FaultPlan {
			return validate.NewFaultPlan(3).DelayUnit(busyQueue(0)[0], 800*time.Millisecond)
		},
		tune:   func(_ executorKind, opt *validate.Options) { opt.UnitDeadline = 400 * time.Millisecond },
		want:   always(complete),
		deaths: func(k executorKind) bool { return k == processSlots },
		census: func(_ executorKind, c validate.Completeness, _ int) bool { return c.Retries >= 1 },
	},
	{
		// Only the process fleet has somewhere to degrade to. Goroutine
		// slots end with nothing done: no unit succeeded, nothing was
		// delivered, and every slot died.
		name: "every slot dead before progress",
		plan: func(k executorKind) *validate.FaultPlan {
			p := validate.NewFaultPlan(4)
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
		plan: func(k executorKind) *validate.FaultPlan { return kill(k, validate.NewFaultPlan(5), 1, 0) },
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
		plan: func(executorKind) *validate.FaultPlan {
			return validate.NewFaultPlan(6).DelayUnit(busyQueue(0)[0], 800*time.Millisecond)
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
		// Windowed dispatch: a process dies at its sixth ASSIGN, behind five
		// answered units, with the rest of its window shipped but never
		// started as far as the scheduler knows; all of it runs again,
		// elsewhere, exactly once.
		name:   "slot dies with answered units unflushed",
		plan:   func(k executorKind) *validate.FaultPlan { return kill(k, validate.NewFaultPlan(7), 2, 5) },
		want:   always(complete),
		deaths: yes,
	},
	{
		// The torn frame is the answer to a unit deep in the first window:
		// every whole frame before it must be consumed first.
		name: "torn frame deep in a window",
		plan: func(k executorKind) *validate.FaultPlan {
			if k == processSlots {
				return validate.NewFaultPlan(8).TruncateMessage(2, 9)
			}
			return validate.NewFaultPlan(8).KillWorker(2, 8)
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
		plan: func(executorKind) *validate.FaultPlan {
			p := validate.NewFaultPlan(9)
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
		plan: func(executorKind) *validate.FaultPlan {
			return validate.NewFaultPlan(10).DelayUnit(busyQueue(1)[2], 800*time.Millisecond)
		},
		tune:   func(_ executorKind, opt *validate.Options) { opt.UnitDeadline = 400 * time.Millisecond },
		want:   always(complete),
		deaths: func(k executorKind) bool { return k == processSlots },
	},
	{
		// Slots die after delivering: a goroutine slot at an emission panic
		// (the fixture's 70 violations, 35 of them from one unit), a process
		// in the middle of its fourth frame, after the frames before it
		// arrived whole. A retry must skip exactly what its first attempt
		// delivered.
		name: "death after partial delivery",
		plan: func(k executorKind) *validate.FaultPlan {
			if k == processSlots {
				return validate.NewFaultPlan(11).TruncateMessage(2, 3)
			}
			return validate.NewFaultPlan(11).KillWorker(1, 1).PanicAt(50)
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
		plan: func(k executorKind) *validate.FaultPlan { return kill(k, validate.NewFaultPlan(12), 0, 0) },
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
				opt := distOpt(f)
				opt.N = fxWorkers
				var plan *validate.FaultPlan
				if sh.plan != nil {
					plan = sh.plan(k)
					if k == processSlots {
						opt.Dist.Command = validate.FaultCommand(t, plan)
					} else {
						validate.InjectSlots(t, plan)
					}
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
				sink := testutil.Callback(func(v validate.Violation) {
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
					ctx, runSink, taken = testutil.StopAfterFirst(ctx, opt.N)
				}

				var res *validate.Result
				var err error
				if k == processSlots {
					res, err = dist.DetectB(ctx, f.b, opt, runSink)
				} else {
					res, err = validate.RepValB(ctx, f.b, opt, runSink)
				}
				if taken != nil {
					got = taken()
				}

				seen := make(map[string]bool, len(got))
				for _, v := range got {
					if seen[v.Key()] {
						t.Fatalf("%v: violation %s delivered twice", plan, v.Key())
					}
					seen[v.Key()] = true
				}
				inBase := make(map[string]bool, len(f.base))
				for _, v := range f.base {
					inBase[v.Key()] = true
				}
				for key := range seen {
					if !inBase[key] {
						t.Fatalf("%v: reported %s, absent from the fault-free set", plan, key)
					}
				}

				c := res.Completeness
				if c.Units != res.Units || c.Attempted > c.Units || c.Succeeded+c.Failed > c.Units || c.Succeeded > c.Attempted {
					t.Fatalf("%v: census does not add up: %+v", plan, c)
				}
				switch want {
				case complete:
					if err != nil {
						t.Fatalf("%v: %v", plan, err)
					}
					if len(got) != len(f.base) {
						t.Fatalf("%v: delivered %d violations, fault-free run has %d", plan, len(got), len(f.base))
					}
					if !c.Complete() || c.Failed != 0 || c.Attempted != c.Units {
						t.Fatalf("%v: census not complete: %+v", plan, c)
					}
				case partial:
					if !errors.Is(err, validate.ErrPartial) {
						t.Fatalf("%v: err = %v, want ErrPartial", plan, err)
					}
					var pe *validate.PartialError
					if !errors.As(err, &pe) || len(pe.Failures) != c.Failed || c.Failed == 0 {
						t.Fatalf("%v: %d failures listed, census %+v", plan, len(pe.Failures), c)
					}
					if c.Succeeded+c.Failed != c.Units {
						t.Fatalf("%v: a finished partial run leaves units unresolved: %+v", plan, c)
					}
					retries := 0
					for _, uf := range pe.Failures {
						if uf.Attempts > 1+max(opt.Retry.Max, 0) {
							t.Fatalf("%v: unit %d consumed %d attempts, budget %d", plan, uf.Unit, uf.Attempts, 1+max(opt.Retry.Max, 0))
						}
						retries += max(uf.Attempts-1, 0)
					}
					if c.Retries < retries {
						t.Fatalf("%v: census counts %d retries, failed units alone consumed %d", plan, c.Retries, retries)
					}
					var we *cluster.WorkerError
					if sh.workerErr != nil && sh.workerErr(k) && !errors.As(err, &we) {
						t.Fatalf("%v: %v does not unwrap to a *cluster.WorkerError", plan, err)
					}
					if sh.sentinel != nil && !errors.Is(err, sh.sentinel) {
						t.Fatalf("%v: %v does not unwrap to %v", plan, err, sh.sentinel)
					}
				case stopped:
					if !errors.Is(err, context.Canceled) || len(got) == 0 || len(got) > 1+testutil.PipeHolds(opt.N) {
						t.Fatalf("stopped run returned %v after %d deliveries, want context.Canceled after 1 to %d",
							err, len(got), 1+testutil.PipeHolds(opt.N))
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
						t.Fatalf("%v: the fault never killed a slot: %+v", plan, c)
					}
					if !sh.deaths(k) && c.WorkerDeaths != 0 {
						t.Fatalf("%v: a slot died where none should: %+v", plan, c)
					}
				}
				if sh.census != nil && !sh.census(k, c, len(got)) {
					t.Fatalf("%v: census %+v after %d deliveries breaks the shape", plan, c, len(got))
				}
				if c.WorkerDeaths > 0 && want == complete && c.Retries == 0 {
					t.Fatalf("%v: a slot died in a complete run yet no unit was retried: %+v", plan, c)
				}

				testutil.RequireSettled(t, goroutinesBefore)
			})
		}
	}
}

// TestDistDegradeAllDeadNoProgress: every worker process killed at its
// first ASSIGN before anything was delivered, with respawn disabled —
// nothing useful happened, so instead of reporting total failure the
// engine falls back in-process and completes.
func TestDistDegradeAllDeadNoProgress(t *testing.T) {
	f := setup(t)
	plan := validate.NewFaultPlan(3)
	for w := 0; w < fxWorkers; w++ {
		plan.KillProcess(w, 0)
	}
	opt := distOpt(f)
	opt.Dist.Command = validate.FaultCommand(t, plan)
	opt.Dist.MaxRespawns = -1
	res, err := dist.DetectB(context.Background(), f.b, opt, nil)
	if err != nil {
		t.Fatalf("%v: total-loss run did not degrade: %v", plan, err)
	}
	if dead := validate.FiredFaults(t, opt.Dist.Command); dead != fxWorkers {
		t.Fatalf("%v: %d of %d processes died before the fallback", plan, dead, fxWorkers)
	}
	if !res.Violations.Equal(f.base) {
		t.Fatalf("%v: degraded run diverged (%d vs %d)", plan, len(res.Violations), len(f.base))
	}
}

// TestProcessFaultsFireWhereTheySay pins the interposer to the wire: on a
// one-worker fleet each process fault strikes where its plan says — a
// kill at the k-th ASSIGN is the death of the k-th unit sent, a torn frame
// a death and not a malformed frame, a held frame a heartbeat starvation,
// a held ASSIGN a missed deadline.
func TestProcessFaultsFireWhereTheySay(t *testing.T) {
	f := setup(t)
	manifest, err := dist.WriteShards(f.g.Freeze(), 1, fragment.Hash, t.TempDir(), "one")
	if err != nil {
		t.Fatal(err)
	}
	sent := busyQueues(f.b, 1)[0] // the units the one slot is sent, in order
	run := func(t *testing.T, plan *validate.FaultPlan, tune func(*validate.Options)) (*validate.Result, error) {
		t.Helper()
		opt := validate.Options{Dist: &validate.DistOptions{
			ManifestPath:      manifest,
			Command:           validate.FaultCommand(t, plan),
			HeartbeatInterval: 50 * time.Millisecond,
			HandshakeTimeout:  2 * time.Second,
		}}
		if tune != nil {
			tune(&opt)
		}
		return dist.DetectB(context.Background(), f.b, opt, nil)
	}
	noRetry := func(opt *validate.Options) { opt.Retry = validate.Retry{Max: -1} }
	// death returns the one failure of a run without retries, which must be
	// a slot death.
	death := func(t *testing.T, plan *validate.FaultPlan, err error) *cluster.WorkerError {
		t.Helper()
		var pe *validate.PartialError
		var we *cluster.WorkerError
		if !errors.As(err, &pe) || len(pe.Failures) != 1 || !errors.As(pe.Failures[0].Err, &we) {
			t.Fatalf("%v: err = %v, want one unit lost to a slot death", plan, err)
		}
		return we
	}
	complete := func(t *testing.T, plan *validate.FaultPlan, res *validate.Result, err error) validate.Completeness {
		t.Helper()
		if err != nil {
			t.Fatalf("%v: %v", plan, err)
		}
		if c := res.Completeness; !c.Complete() || !res.Violations.Equal(f.base) {
			t.Fatalf("%v: census %+v, %d violations of %d", plan, c, len(res.Violations), len(f.base))
		}
		return res.Completeness
	}

	t.Run("KillProcess", func(t *testing.T) {
		for k := range 3 {
			plan := validate.NewFaultPlan(int64(k)).KillProcess(0, k)
			_, err := run(t, plan, noRetry)
			if we := death(t, plan, err); we.Unit != sent[k] {
				t.Fatalf("%v: unit %d died, want unit %d, the ASSIGN #%d", plan, we.Unit, sent[k], k)
			}
		}
	})
	t.Run("TruncateMessage", func(t *testing.T) {
		plan := validate.NewFaultPlan(4).TruncateMessage(0, 1)
		res, err := run(t, plan, nil)
		if c := complete(t, plan, res, err); c.WorkerDeaths == 0 {
			t.Fatalf("%v: no slot died: %+v", plan, c)
		}
		plan = validate.NewFaultPlan(5).TruncateMessage(0, 1)
		_, err = run(t, plan, noRetry)
		if we := death(t, plan, err); strings.Contains(we.Error(), "malformed") || strings.Contains(we.Error(), "out of protocol") {
			t.Fatalf("%v: a torn frame was read as a frame: %v", plan, we)
		}
	})
	t.Run("StallPipe", func(t *testing.T) {
		plan := validate.NewFaultPlan(6).StallPipe(0, 1, 30*time.Second)
		start := time.Now()
		_, err := run(t, plan, noRetry)
		if we := death(t, plan, err); !strings.Contains(we.Error(), "no frames for") || time.Since(start) > 10*time.Second {
			t.Fatalf("%v: %v after %v, want heartbeat starvation", plan, we, time.Since(start))
		}
	})
	t.Run("DelayUnit", func(t *testing.T) {
		plan := validate.NewFaultPlan(7).DelayUnit(sent[0], 800*time.Millisecond)
		res, err := run(t, plan, func(opt *validate.Options) { opt.UnitDeadline = 400 * time.Millisecond })
		if c := complete(t, plan, res, err); c.Retries == 0 {
			t.Fatalf("%v: the census counts no retry: %+v", plan, c)
		}
	})
}
