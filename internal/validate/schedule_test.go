package validate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/workload"
)

// The scheduler's own tests: a deterministic fake Executor stands in for
// the slots, so a fault lands on an exact attempt and a schedule replays.

// Fault kinds of the fake executor, struck on one attempt of the run.
const (
	schedKill     = iota // the slot dies as the attempt starts
	schedPanic           // the slot dies after the attempt's k-th emission
	schedDeadline        // the attempt misses its deadline after k emissions
)

// schedFault strikes the run's attempt-th attempt (0-based, in the order
// the attempts start).
type schedFault struct{ attempt, kind, k int }

func (f schedFault) String() string {
	return fmt.Sprintf("%s@attempt%d", [...]string{"kill", fmt.Sprintf("panic(emit#%d)", f.k), fmt.Sprintf("deadline(emit#%d)", f.k)}[f.kind], f.attempt)
}

// fakeSlots is a deterministic Executor: unit u emits emits[u] violations
// (u, 0), (u, 1), …, and Superstep runs the slots' tasks one at a time, in
// slot order. With respawn, a slot that died comes back once, and a death
// is returned as a *cluster.WorkerError, as a worker process's is;
// otherwise a slot is never revived and dies by panic, as a goroutine
// slot does. A deadline miss under respawn kills the slot too.
type fakeSlots struct {
	emits   []int
	respawn bool
	faults  []schedFault
	starts  []int
	fired   int
	// attempts records every attempt: its unit and the emissions it owed.
	attempts []schedAttempt
}

type schedAttempt struct{ unit, owed int }

func (e *fakeSlots) Start(w int) error {
	if e.starts[w] > 0 && (!e.respawn || e.starts[w] > 1) {
		return fmt.Errorf("slot %d is gone", w)
	}
	e.starts[w]++
	return nil
}

func (e *fakeSlots) Run(w int, queue []int, skip func(int) int64, emit func(Violation)) error {
	ui := queue[0]
	from := int(skip(ui))
	i := len(e.attempts)
	e.attempts = append(e.attempts, schedAttempt{ui, e.emits[ui] - from})
	fault := -1
	for j, f := range e.faults {
		if f.attempt == i {
			fault = j
		}
	}
	die := func(cause string) error {
		e.fired++
		if e.respawn {
			return &cluster.WorkerError{Worker: w, Unit: ui, Panic: errors.New(cause)}
		}
		panic(cause)
	}
	if fault >= 0 && e.faults[fault].kind == schedKill {
		return die("killed")
	}
	for n := from; n < e.emits[ui]; n++ {
		emit(Violation{Rule: "r", Match: core.Match{graph.NodeID(ui), graph.NodeID(n)}})
		if fault < 0 || n-from+1 != e.faults[fault].k {
			continue
		}
		if e.faults[fault].kind == schedPanic {
			return die("panicked")
		}
		e.fired++
		if e.respawn {
			return &cluster.WorkerError{Worker: w, Unit: ui, Panic: context.DeadlineExceeded}
		}
		return context.DeadlineExceeded
	}
	if fault >= 0 && e.faults[fault].kind == schedDeadline && e.faults[fault].k == 0 {
		e.fired++
		if e.respawn {
			return &cluster.WorkerError{Worker: w, Unit: ui, Panic: context.DeadlineExceeded}
		}
		return context.DeadlineExceeded
	}
	return nil
}

func (e *fakeSlots) Superstep(task func(w int)) []time.Duration {
	busy := make([]time.Duration, len(e.starts))
	for w := range e.starts {
		start := time.Now()
		task(w)
		busy[w] = time.Since(start)
	}
	return busy
}

func (e *fakeSlots) Close() {}

// schedRun is one scheduler run over exec, with its deliveries recorded.
type schedRun struct {
	r        *detectRun
	got      []Violation
	comp     Completeness
	perr     *PartialError
	finished bool
}

func runSchedule(exec Executor, slots, units, retryMax int, assign workload.Assignment) *schedRun {
	s := &schedRun{}
	var mu sync.Mutex
	s.r = &detectRun{
		ctx: context.Background(), cl: cluster.New(slots), exec: exec,
		units: make([]Unit, units), opt: Options{N: slots, Retry: Retry{Max: retryMax}},
		sink: callback(func(v Violation) {
			mu.Lock()
			s.got = append(s.got, v)
			mu.Unlock()
		}),
		simulated: true,
	}
	_, s.comp, s.perr = s.r.run(assign)
	s.finished = true
	return s
}

// withTimeout runs fn, failing t if it has not returned within d: a slot
// that waits for another slot deadlocks the one-at-a-time fake.
func withTimeout(t *testing.T, d time.Duration, what fmt.Stringer, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%v: the run did not finish within %v", what, d)
	}
}

type placement []schedFault

func (p placement) String() string { return fmt.Sprint([]schedFault(p)) }

// TestScheduleEveryFaultPlacement runs every placement of up to two faults —
// a kill at an attempt's start, a panic after its k-th emission, a deadline
// miss after k emissions — over 2 slots × 4 units, under both Start
// policies (never revive, respawn once) and two retry budgets, and checks
// each run: every violation delivered exactly once, an honest census, the
// fault-free set from a complete run, failures sorted by unit, and units
// abandoned only when their budget is spent or no slot is left.
func TestScheduleEveryFaultPlacement(t *testing.T) {
	emits := []int{2, 0, 3, 1}
	assign := workload.Assignment{{0, 1}, {2, 3}}
	total := 0
	for _, n := range emits {
		total += n
	}
	runs := 0
	for _, respawn := range []bool{false, true} {
		for _, retryMax := range []int{1, 2} {
			run := func(faults placement) (*fakeSlots, *schedRun) {
				exec := &fakeSlots{emits: emits, respawn: respawn, faults: faults, starts: make([]int, 2)}
				var s *schedRun
				withTimeout(t, 10*time.Second, faults, func() { s = runSchedule(exec, 2, len(emits), retryMax, assign) })
				runs++
				check(t, fmt.Sprintf("respawn=%v max=%d %v", respawn, retryMax, faults), exec, s, emits, total, retryMax)
				return exec, s
			}
			clean, _ := run(nil)
			for _, f1 := range placements(clean.attempts, 0) {
				one, _ := run(placement{f1})
				for _, f2 := range placements(one.attempts, f1.attempt+1) {
					run(placement{f1, f2})
				}
			}
		}
	}
	t.Logf("%d schedules", runs)
}

// placements lists every fault that fires on one of the attempts from the
// given index on.
func placements(attempts []schedAttempt, from int) []schedFault {
	var out []schedFault
	for i := from; i < len(attempts); i++ {
		out = append(out, schedFault{i, schedKill, 0})
		for k := 1; k <= attempts[i].owed; k++ {
			out = append(out, schedFault{i, schedPanic, k})
		}
		for k := 0; k < attempts[i].owed; k++ {
			out = append(out, schedFault{i, schedDeadline, k})
		}
	}
	return out
}

func check(t *testing.T, name string, exec *fakeSlots, s *schedRun, emits []int, total, retryMax int) {
	t.Helper()
	if exec.fired != len(exec.faults) {
		t.Fatalf("%s: %d of %d faults fired", name, exec.fired, len(exec.faults))
	}
	seen := map[[2]graph.NodeID]bool{}
	perUnit := make([]int, len(emits))
	for _, v := range s.got {
		key := [2]graph.NodeID{v.Match[0], v.Match[1]}
		if seen[key] {
			t.Fatalf("%s: violation %v delivered twice", name, key)
		}
		seen[key] = true
		perUnit[v.Match[0]]++
	}
	c := s.comp
	if c.Units != len(emits) || c.Succeeded+c.Failed != c.Units {
		t.Fatalf("%s: census does not add up: %+v", name, c)
	}
	if c.Attempted+c.Retries != len(exec.attempts) {
		t.Fatalf("%s: census counts %d attempts and %d retries, the slots ran %d attempts", name, c.Attempted, c.Retries, len(exec.attempts))
	}
	deaths := 0
	for _, f := range exec.faults {
		if exec.respawn || f.kind != schedDeadline {
			deaths++
		}
	}
	if c.WorkerDeaths != deaths {
		t.Fatalf("%s: census counts %d deaths, %d slots died", name, c.WorkerDeaths, deaths)
	}
	for ui, st := range s.r.states {
		if st.done && perUnit[ui] != emits[ui] {
			t.Fatalf("%s: unit %d succeeded with %d of its %d violations delivered", name, ui, perUnit[ui], emits[ui])
		}
	}
	if s.perr == nil {
		if c.Failed != 0 || len(s.got) != total {
			t.Fatalf("%s: a complete run delivered %d of %d violations: %+v", name, len(s.got), total, c)
		}
		return
	}
	if len(s.perr.Failures) != c.Failed {
		t.Fatalf("%s: %d failures listed, census %+v", name, len(s.perr.Failures), c)
	}
	if !slices.IsSortedFunc(s.perr.Failures, func(a, b UnitFailure) int { return a.Unit - b.Unit }) {
		t.Fatalf("%s: failures not sorted by unit: %v", name, s.perr.Failures)
	}
	live := slices.Contains(s.r.live, true)
	for _, f := range s.perr.Failures {
		if s.r.states[f.Unit].done || f.Attempts > retryMax+1 {
			t.Fatalf("%s: failure %+v of a done unit, or over its budget", name, f)
		}
		if live && f.Attempts <= retryMax {
			t.Fatalf("%s: unit %d abandoned after %d attempts with a slot still live", name, f.Unit, f.Attempts)
		}
	}
}

// gatedSlots runs slots concurrently: unit 0's first attempt misses its
// deadline; unit 1 returns once unit 0's retry has started, or after
// timeout.
type gatedSlots struct {
	mu       sync.Mutex
	attempts int // of unit 0
	retried  chan struct{}
	timeout  time.Duration
	waited   time.Duration
	timedOut bool
}

func (e *gatedSlots) Start(int) error { return nil }
func (e *gatedSlots) Close()          {}

func (e *gatedSlots) Run(_ int, queue []int, _ func(int) int64, _ func(Violation)) error {
	switch queue[0] {
	case 0:
		e.mu.Lock()
		e.attempts++
		first := e.attempts == 1
		e.mu.Unlock()
		if first {
			return context.DeadlineExceeded
		}
		close(e.retried)
	case 1:
		start := time.Now()
		select {
		case <-e.retried:
		case <-time.After(e.timeout):
			e.timedOut = true
		}
		e.waited = time.Since(start)
	}
	return nil
}

func (e *gatedSlots) Superstep(task func(w int)) []time.Duration {
	busy, _ := cluster.Fan(2, 0, task)
	return busy
}

// TestScheduleRetryBeforeBarrier: a failed unit is retried while another
// slot is still busy — the retry does not wait for a superstep barrier.
// Slot 1's unit returns only once slot 0's retry has started; a scheduler
// that retries at the barrier holds it until the timeout.
func TestScheduleRetryBeforeBarrier(t *testing.T) {
	exec := &gatedSlots{retried: make(chan struct{}), timeout: 2 * time.Second}
	s := runSchedule(exec, 2, 2, 2, workload.Assignment{{0}, {1}})
	if exec.timedOut {
		t.Fatalf("slot 1 waited %v: unit 0 was not retried until the barrier", exec.waited)
	}
	if s.perr != nil || !s.comp.Complete() || s.comp.Retries != 1 {
		t.Fatalf("census %+v, err %v; want complete with one retry", s.comp, s.perr)
	}
	t.Logf("slot 1 waited %v for the retry", exec.waited)
}
