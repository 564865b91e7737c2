package validate

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/graph"
	"gfd/internal/workload"
)

// This file is the fault-tolerant unit scheduler every parallel engine
// runs under — repVal, disVal and the multi-process runtime in
// internal/dist differ only in the Executor their slots run units on. The
// paper's engines ran on a 20-node EC2 cluster where worker loss and
// stragglers are the steady state; the detection superstep here gives
// goroutine slots and process slots the same failure semantics:
//
//   - a slot death kills only that slot: a panic inside a goroutine slot is
//     recovered into a typed *cluster.WorkerError (worker id, unit id,
//     stack) and a lost worker process is reported as one by its executor;
//   - a unit attempt exceeding Options.UnitDeadline is abandoned — a
//     goroutine slot cooperatively (it survives), a process slot by being
//     killed;
//   - one queue takes every failed attempt inside its Options.Retry.Max
//     budget and the unstarted rest of a dead slot's list; a slot that
//     finishes its own list drains it, backing off per unit before a
//     retry, and a dead slot asks the executor to bring it back while
//     units are queued — so a retry never waits for a barrier;
//   - a unit taken from the queue ships again (its descriptor through the
//     shipment counters and, for disVal, the block via the per-attempt prep
//     hook; an ASSIGN frame with its halo for a process slot), so DetectSpan
//     and the shipment counters stay honest under faults;
//   - retried units never double-report: per-unit enumeration is
//     deterministic — a unit enumerates its star-test survivors in class
//     order, each in the matcher's order — so a retry skips exactly the
//     violations its earlier attempts already delivered (unitState.emitted);
//     the violation set of a recovered run is byte-identical to the
//     fault-free run's (the chaos differential suites pin this);
//   - when budgets exhaust (or every slot is dead) the run returns a
//     *PartialError (errors.Is ErrPartial) listing the failed units, and
//     Result.Completeness carries the census — partial results announce
//     themselves instead of masquerading as clean reports.
//
// The fault-free fast path is one static superstep: every slot runs its
// LPT / bi-criteria list unchanged, bookkeeping per unit is a direct call
// and a few state writes on shared memory (an 80 000-unit cold run spends
// ≈0.4µs of wall per unit — no channel hop fits in that). No slot waits for
// another: Superstep may run the slots one at a time, so a slot blocked on
// the queue could starve one not yet started. Units queued after every slot
// returned run in one more superstep, the only barrier recovery keeps.
//
// Nothing here injects a fault. The chaos suites strike from outside: they
// wrap the goroutine slots (wrapSlots), and they interpose on a worker
// process's pipes in the test binary it re-executes.

// ErrPartial marks a detection result whose violation set may be
// incomplete: some work units were abandoned after exhausting their retry
// budget (or losing every worker). Match with errors.Is; the concrete
// error is a *PartialError listing the failures, and Result.Completeness
// carries the counts.
var ErrPartial = errors.New("validate: partial result")

// UnitFailure records one work unit the scheduler had to abandon.
type UnitFailure struct {
	Unit     int   // index into the run's unit set
	Group    int   // rule group of the unit
	Attempts int   // attempts consumed (0: never started — all workers died first)
	Err      error // last failure: *cluster.WorkerError or context.DeadlineExceeded
}

// PartialError aggregates the abandoned units of a partial run. It
// satisfies errors.Is(err, ErrPartial) and unwraps to the per-unit
// failures, so a *cluster.WorkerError or context.DeadlineExceeded buried
// in the run remains matchable.
type PartialError struct {
	Failures []UnitFailure
}

// Error summarizes the failure set.
func (e *PartialError) Error() string {
	if len(e.Failures) == 1 {
		f := e.Failures[0]
		return fmt.Sprintf("validate: partial result: unit %d failed after %d attempts: %v", f.Unit, f.Attempts, f.Err)
	}
	return fmt.Sprintf("validate: partial result: %d units failed (first: %v)", len(e.Failures), e.Failures[0].Err)
}

// Is matches ErrPartial.
func (e *PartialError) Is(target error) bool { return target == ErrPartial }

// Unwrap exposes the per-unit causes to errors.Is / errors.As.
func (e *PartialError) Unwrap() []error {
	out := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Err
	}
	return out
}

// Executor is the scheduler's one seam: where a slot's units actually run.
// The scheduler owns everything else — attempts, skip counts, the retry
// queue, backoff, the census — so a new kind of slot brings no second state
// machine with it. Two implementations exist: goroutine slots over the
// bundle's topology (goroutines, below) and worker processes over persisted
// shards (internal/dist).
type Executor interface {
	// Start brings slot w up. The scheduler calls it once per slot before
	// the first superstep, and again from slot w's own task when the slot
	// is down while units are queued, concurrently with the other slots'
	// tasks; an error leaves the slot dead.
	Start(w int) error
	// Run executes one attempt of unit queue[0] on slot w: the first
	// skip(queue[0]) violations of the unit's (deterministic) enumeration
	// are suppressed and the rest go to emit. queue[1:] is what follows on
	// this slot if nothing fails — the scheduler will call Run with
	// queue[1:] next — so an executor whose slots sit behind a transport
	// may start shipping those units early; skip is exact for them too (a
	// unit's count only moves while it runs). A unit taken from the retry
	// queue comes alone. Only queue[0] is this call's to answer for:
	// attempts, skip counts and failure causes stay per unit in the
	// scheduler. A nil error means the enumeration ran to its end,
	// or stopped short because the run's context is done, which the
	// scheduler checks after every attempt. A *cluster.WorkerError
	// anywhere in the chain means the slot died — exactly what a panic
	// escaping Run is recovered into; any other error (a cooperative
	// deadline miss, cancellation) leaves the slot able to take its next
	// unit. Every violation the slot produced for queue[0] before dying
	// must have reached emit by the time Run returns, so the unit's skip
	// count is exact.
	Run(w int, queue []int, skip func(ui int) int64, emit func(Violation)) error
	// Superstep runs task(w) for every slot concurrently, waits for all of
	// them and returns each slot's busy time; the superstep's span is the
	// maximum. The tasks may run one at a time (the goroutine executor caps
	// them at NumCPU), so none of them waits for another. How many tasks may occupy the host at once, and whose
	// clock measures busy, is the executor's knowledge: goroutine slots
	// compute on this host's cores, process slots wait on pipes.
	Superstep(task func(w int)) []time.Duration
	// Close releases the slots after the last superstep. Idempotent.
	Close()
}

// goroutines is the in-process Executor: slot w is a goroutine running a
// UnitRunner — the same per-unit body a worker process runs — over the
// bundle's shared topology.
type goroutines struct {
	ctx     context.Context
	b       *Bundle
	opt     Options
	plan    *planEntry
	started []bool
	runners []*UnitRunner
}

func newGoroutines(ctx context.Context, b *Bundle, opt Options, plan *planEntry) *goroutines {
	return &goroutines{ctx: ctx, b: b, opt: opt, plan: plan,
		started: make([]bool, opt.N), runners: make([]*UnitRunner, opt.N)}
}

// Start admits a slot once. A goroutine slot that panicked is never
// revived: its matcher died mid-enumeration, and a fault that struck once
// would otherwise make every total loss recoverable.
func (e *goroutines) Start(w int) error {
	if e.started[w] {
		return fmt.Errorf("validate: worker %d is gone", w)
	}
	e.started[w] = true
	return nil
}

// Run ignores the look-ahead: a goroutine slot has no transport to prime.
func (e *goroutines) Run(w int, queue []int, skip func(ui int) int64, emit func(Violation)) error {
	ui := queue[0]
	r := e.runners[w]
	if r == nil {
		// Built on the slot's own goroutine, and only for slots that were
		// handed work: the matcher's used-set is O(|V|).
		r = NewUnitRunner(e.ctx, e.b, e.opt)
		r.candsOf = func(ui int) [][]graph.NodeID { return e.b.candidatesOf(e.plan.chunks, ui) }
	}
	// A panic below drops the runner, so Close never pools a dirty matcher.
	e.runners[w] = nil
	u := &e.plan.chunks.units[ui]
	err := r.run(r.groups[u.Group], u, skip(ui), emit)
	e.runners[w] = r
	return err
}

// Superstep caps OS-level concurrency at the core count and times each
// slot's goroutine, so busy times measure compute (cluster.Fan). Slots
// recover their own panics in the scheduler, with unit context, so the
// fan-out's net stays unused here.
func (e *goroutines) Superstep(task func(w int)) []time.Duration {
	busy, _ := cluster.Fan(e.opt.N, runtime.NumCPU(), task)
	return busy
}

// Close releases the matcher of every slot that did not die.
func (e *goroutines) Close() {
	for w, r := range e.runners {
		if r != nil {
			e.b.rules.plans.Put(r.m)
			e.runners[w] = nil
		}
	}
}

// unitState tracks one unit across its attempts. It is written by the slot
// that owns the unit — the slot whose list holds it, then whichever slot
// takes it from the queue, under the queue's mutex — and read after the
// last superstep.
type unitState struct {
	attempts int
	emitted  int64 // violations already delivered by earlier attempts; retries skip these
	done     bool
	lastErr  error
}

// detectRun is one fault-tolerant detection phase: the shared inputs plus
// the scheduler state of the run.
type detectRun struct {
	ctx   context.Context
	cl    *cluster.Cluster
	exec  Executor
	units []Unit
	opt   Options // normalized
	sink  Sink    // the collect, callback or pipe sink
	// simulated is set when the slots are goroutines: the scheduler then
	// counts what a wire would carry (unit descriptors out, violations
	// back). Process slots count their real frames.
	simulated bool
	// prep runs at the start of every attempt on the executing slot —
	// disVal charges the unit's block shipment (prefetch or partial-match)
	// here, so a retried unit re-ships to whichever slot takes it.
	prep func(w, ui int)

	mu sync.Mutex // guards queue, failures, deaths and a slot's death
	// queue holds the units any live slot may take: failed attempts still
	// inside their budget and the unstarted rest of a dead slot's list.
	queue    []int
	failures []UnitFailure // units abandoned, in the order they gave up
	states   []unitState
	// live[w] and counts[w] (the violations slot w delivered) are written
	// only by slot w's task, and read between supersteps.
	live   []bool
	counts []int64
	deaths int
}

// A unit's retry waits retryBackoff × 2^(attempts−1), capped at
// maxBackoffFactor × retryBackoff.
const (
	retryBackoff     = time.Millisecond
	maxBackoffFactor = 8
)

// run executes the detection phase from the given initial assignment and
// returns the detection span (summed across supersteps), the completeness
// census, and the partial-failure error (nil when every unit succeeded or
// the run was cancelled first).
func (r *detectRun) run(assign workload.Assignment) (time.Duration, Completeness, *PartialError) {
	n := r.opt.N
	r.states = make([]unitState, len(r.units))
	r.live = make([]bool, n)
	r.counts = make([]int64, n)
	r.queue, r.failures, r.deaths = nil, nil, 0
	for w := range r.live {
		r.live[w] = r.exec.Start(w) == nil
	}
	if r.simulated {
		// Shipping W_i(Σ, G) to each worker: one compact descriptor per
		// unit; a unit taken from the queue ships its own.
		for w, us := range assign {
			if len(us) > 0 {
				r.cl.Ship(cluster.Coordinator, w, int64(len(us))*unitDescriptorBytes)
			}
		}
		r.cl.EndRound()
	}

	var span time.Duration
	lists := assign
	for {
		busy := r.exec.Superstep(func(w int) { r.worker(w, lists[w]) })
		span += cluster.MaxSpan(busy)
		if r.ctx.Err() != nil || len(r.queue) == 0 {
			// Cancelled, unreached units are neither succeeded nor failed
			// (the caller reports ctx.Err()); otherwise nothing is left.
			break
		}
		if !slices.Contains(r.live, true) {
			// Nothing left to run on. Everything queued is abandoned.
			for _, ui := range r.queue {
				r.failures = append(r.failures, r.failure(ui))
			}
			break
		}
		// Every list is drained: the next superstep drains the queue.
		lists = make([][]int, n)
		if r.simulated {
			r.cl.EndRound()
		}
	}
	if r.simulated {
		// Violations return to the coordinator whichever sink consumed
		// them; the shipment is charged off the per-slot delivery counts.
		for w, cnt := range r.counts {
			r.cl.Ship(w, cluster.Coordinator, cnt*violationBytes)
		}
		r.cl.EndRound()
	}

	comp := Completeness{Units: len(r.units), WorkerDeaths: r.deaths, Failed: len(r.failures)}
	for i := range r.states {
		st := &r.states[i]
		if st.attempts > 0 {
			comp.Attempted++
		}
		if st.attempts > 1 {
			comp.Retries += st.attempts - 1
		}
		if st.done {
			comp.Succeeded++
		}
	}
	if len(r.failures) == 0 {
		return span, comp, nil
	}
	slices.SortFunc(r.failures, func(a, b UnitFailure) int { return a.Unit - b.Unit })
	return span, comp, &PartialError{Failures: r.failures}
}

// delivered is how many violations the sink has taken so far.
func (r *detectRun) delivered() (n int64) {
	for _, c := range r.counts {
		n += c
	}
	return n
}

// worker is slot w's task for one superstep: its own list, then units from
// the queue until the queue is empty. It never waits for another slot. A
// slot that is down — it died, or never came up — hands its unstarted
// units to the queue and, while units are queued, asks the executor to
// bring it back; if it comes back, it keeps draining.
func (r *detectRun) worker(w int, mine []int) {
	for {
		if !r.live[w] {
			r.mu.Lock()
			r.queue = append(r.queue, mine...)
			queued := len(r.queue) > 0
			r.mu.Unlock()
			if !queued || r.exec.Start(w) != nil {
				return
			}
			r.live[w], mine = true, nil
		}
		mine = r.drain(w, mine)
		if r.live[w] {
			return
		}
	}
}

// drain runs slot w's list, then units from the queue, until both are empty
// or the slot dies; on a death it returns the list's unstarted rest. A slot
// dies one way: a *cluster.WorkerError, either returned by the executor (a
// lost process) or recovered here from a panic, with the in-flight unit as
// context.
func (r *detectRun) drain(w int, mine []int) (rest []int) {
	next := 0           // the first unstarted position of mine
	cur := -1           // unit in flight, for the recover path
	var delivered int64 // violations delivered by the in-flight attempt
	defer func() {
		if rec := recover(); rec != nil {
			if cur >= 0 {
				r.states[cur].emitted += delivered
			}
			r.die(w, cur, cluster.Recovered(w, cur, rec))
			rest = mine[next:]
		}
	}()

	out := func(v Violation) {
		// A violation counts as delivered the moment the sink takes it,
		// whether that was an append, a callback, or a buffered channel the
		// consumer has not drained yet — so the skip count a retry resumes
		// from holds for asynchronous emission too.
		r.sink.Emit(w, v)
		delivered++
		r.counts[w]++
	}
	// Bound here, once per slot and superstep, like out: the per-unit path
	// allocates no closure.
	skip := func(ui int) int64 { return r.states[ui].emitted }

	for {
		var ui int
		var queue []int
		if next < len(mine) {
			ui, queue = mine[next], mine[next:]
			next++
		} else {
			var ok bool
			if ui, ok = r.take(w); !ok {
				return nil
			}
			queue = []int{ui} // a unit from the queue runs alone
		}
		st := &r.states[ui]
		cur, delivered = ui, 0
		st.attempts++
		if r.prep != nil {
			r.prep(w, ui)
		}
		err := r.exec.Run(w, queue, skip, out)
		st.emitted += delivered
		cur = -1
		switch {
		case r.ctx.Err() != nil:
			// The run is over: like the units it never reached, the
			// attempt counts as neither succeeded nor failed.
			return nil
		case err == nil:
			st.done = true
			st.lastErr = nil
		case slotDied(err):
			r.die(w, ui, err)
			return mine[next:]
		default:
			// The attempt was abandoned (it missed its deadline); the slot
			// survives and the unit goes back for a retry.
			r.mu.Lock()
			st.lastErr = fmt.Errorf("unit %d (worker %d): %w", ui, w, err)
			r.retry(ui)
			r.mu.Unlock()
		}
	}
}

// take pops the next queued unit for slot w. A unit that failed before
// waits its backoff on the slot that took it first; take reports false when
// the queue is empty or the run's context ended during the wait.
func (r *detectRun) take(w int) (int, bool) {
	r.mu.Lock()
	if len(r.queue) == 0 {
		r.mu.Unlock()
		return 0, false
	}
	ui := r.queue[0]
	r.queue = r.queue[1:]
	r.mu.Unlock()
	if r.simulated {
		r.cl.Ship(cluster.Coordinator, w, unitDescriptorBytes)
	}
	if a := r.states[ui].attempts; a > 0 {
		select {
		case <-r.ctx.Done():
			return 0, false
		case <-time.After(retryBackoff * time.Duration(min(1<<(a-1), maxBackoffFactor))):
		}
	}
	return ui, true
}

// slotDied reports whether an executor error is a slot death. It is its
// own function so the errors.As target escapes only on the failure path,
// not once per unit.
func slotDied(err error) bool {
	var death *cluster.WorkerError
	return errors.As(err, &death)
}

// die marks slot w dead with err as the in-flight unit's failure cause,
// and sends that unit back for a retry.
func (r *detectRun) die(w, ui int, err error) {
	r.mu.Lock()
	r.live[w] = false
	r.deaths++
	if ui >= 0 {
		r.states[ui].lastErr = err
		r.retry(ui)
	}
	r.mu.Unlock()
}

// retry queues a failed unit while its budget lasts and records it as
// failed once the budget is spent. The caller holds mu.
func (r *detectRun) retry(ui int) {
	if r.states[ui].attempts <= r.opt.Retry.Max {
		r.queue = append(r.queue, ui)
		return
	}
	r.failures = append(r.failures, r.failure(ui))
}

func (r *detectRun) failure(ui int) UnitFailure {
	st := &r.states[ui]
	err := st.lastErr
	if err == nil {
		err = fmt.Errorf("unit %d: never started: %w", ui, errAllWorkersDead)
	}
	return UnitFailure{Unit: ui, Group: r.units[ui].Group, Attempts: st.attempts, Err: err}
}

var errAllWorkersDead = errors.New("validate: all workers dead")

// engineRecover is the last-resort safety net wrapped around every engine
// body: a panic on the coordinator path (planning, assignment, shipping)
// becomes an error return instead of tearing down the process. Worker
// panics never reach it — the scheduler recovers those with unit context.
func engineRecover(err *error) {
	if rec := recover(); rec != nil {
		*err = cluster.Recovered(cluster.Coordinator, -1, rec)
	}
}
