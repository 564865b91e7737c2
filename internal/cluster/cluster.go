// Package cluster is what the parallel validation algorithms of Section 6
// schedule on: a panic-safe slot fan-out (Fan), the typed worker death it
// recovers into (WorkerError), and the exact shipment counters of one run
// (Cluster). The paper evaluated on 20 Amazon EC2 instances; the goroutine
// slots and internal/dist's worker processes stand in for them (README
// "Layout"; docs/DISTRIBUTED.md). Every cross-worker data movement is
// recorded through Ship and every exchange barrier through EndRound; the
// counters are exact and priced nowhere here — validate.Result.ModeledComm
// is the one place they become the paper's communication time.
package cluster

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"
)

// Cluster counts the shipments of a coordinator and n workers. The zero
// value is unusable; use New.
type Cluster struct {
	n int

	mu        sync.Mutex
	recvBytes []int64  // bytes received per worker (coordinator = index n)
	counters  Counters // MaxReceived is left 0: Counters derives it from recvBytes
}

// Counters are the exact shipment totals of one run.
type Counters struct {
	Bytes       int64 // bytes shipped
	Messages    int64 // shipments
	Rounds      int64 // communication rounds (BSP exchange barriers)
	MaxReceived int64 // bytes into the busiest receiver, coordinator included
}

// WorkerError is the typed failure a worker death converts to — a
// recovered panic in a goroutine worker, or a lost worker process: the
// worker that died, the work unit it was executing (-1 when the death was
// not unit-scoped — e.g. during estimation), the panic value (for a
// process, how it ended), and the goroutine stack at recovery. One
// process-tearing panic becomes one inspectable error; the coordinator
// decides what to retry.
type WorkerError struct {
	Worker int
	Unit   int
	Panic  any
	Stack  []byte
}

// Unwrap exposes the cause when the death carries one as an error: a
// worker process killed for missing its unit deadline unwraps to
// context.DeadlineExceeded, a panic(err) to err.
func (e *WorkerError) Unwrap() error {
	err, _ := e.Panic.(error)
	return err
}

// Error summarizes the death without the stack; use Stack when debugging.
func (e *WorkerError) Error() string {
	if e.Unit >= 0 {
		return fmt.Sprintf("cluster: worker %d died on unit %d: %v", e.Worker, e.Unit, e.Panic)
	}
	return fmt.Sprintf("cluster: worker %d died: %v", e.Worker, e.Panic)
}

// Recovered converts a recovered panic value into a WorkerError carrying
// the current stack. Call it from a deferred recover with r != nil.
func Recovered(worker, unit int, r any) *WorkerError {
	return &WorkerError{Worker: worker, Unit: unit, Panic: r, Stack: debug.Stack()}
}

// Coordinator is the pseudo-worker index used for shipments to/from the
// coordinator S_c.
const Coordinator = -1

// New creates the counters of a coordinator and n workers.
func New(n int) *Cluster {
	if n < 1 {
		n = 1
	}
	return &Cluster{n: n, recvBytes: make([]int64, n+1)}
}

// N returns the number of workers.
func (c *Cluster) N() int { return c.n }

func (c *Cluster) slot(worker int) int {
	if worker == Coordinator {
		return c.n
	}
	return worker
}

// Ship records a data shipment of the given size from one worker (or the
// coordinator) to another. It is safe for concurrent use.
func (c *Cluster) Ship(from, to int, bytes int64) {
	if from == to {
		return // local access is free
	}
	c.mu.Lock()
	c.recvBytes[c.slot(to)] += bytes
	c.counters.Bytes += bytes
	c.counters.Messages++
	c.mu.Unlock()
}

// EndRound marks the end of one communication round (a BSP exchange
// barrier).
func (c *Cluster) EndRound() {
	c.mu.Lock()
	c.counters.Rounds++
	c.mu.Unlock()
}

// Counters returns the shipment totals so far. Shipments to different
// receivers overlap, so MaxReceived is the maximum per-receiver total, not
// the sum.
func (c *Cluster) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.counters
	for _, b := range c.recvBytes {
		out.MaxReceived = max(out.MaxReceived, b)
	}
	return out
}

// Fan runs task(w) for every slot w in [0, n), slot n-1 on the calling
// goroutine and each other slot on its own, at most limit of them at once
// (limit < 1, or ≥ n, runs all n at once), and waits for all of them — one
// BSP superstep; a one-slot run spawns no goroutine. It returns each slot's
// busy time, measured from when the slot got its turn, so a cap at the
// core count makes busy times measure compute rather than scheduler
// contention (the caller takes the superstep's span as the maximum, see
// MaxSpan). A panicking task does not tear down the process: its slot is
// recovered into a *WorkerError (unit -1) while the others drain, and
// every death is returned, in slot order. Callers that recover inside task
// to keep unit context (the detection scheduler) never see one here.
func Fan(n, limit int, task func(w int)) (busy []time.Duration, deaths []*WorkerError) {
	if limit < 1 || limit > n {
		limit = n
	}
	sem := make(chan struct{}, max(limit, 1))
	busy = make([]time.Duration, n)
	died := make([]*WorkerError, n)
	var wg sync.WaitGroup
	wg.Add(n)
	slot := func(w int) {
		defer wg.Done()
		sem <- struct{}{}
		defer func() { <-sem }()
		start := time.Now()
		defer func() {
			busy[w] = time.Since(start)
			if r := recover(); r != nil {
				died[w] = Recovered(w, -1, r)
			}
		}()
		task(w)
	}
	for w := 0; w < n-1; w++ {
		go slot(w)
	}
	if n > 0 {
		slot(n - 1)
	}
	wg.Wait()
	for _, d := range died {
		if d != nil {
			deaths = append(deaths, d)
		}
	}
	return busy, deaths
}

// MaxSpan returns the largest busy time — the parallel duration of a
// superstep.
func MaxSpan(busy []time.Duration) time.Duration {
	var max time.Duration
	for _, b := range busy {
		if b > max {
			max = b
		}
	}
	return max
}
