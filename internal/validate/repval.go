package validate

import (
	"context"
	"slices"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fragment"
)

// RepValB is the parallel scalable error-detection algorithm for
// replicated graphs (Fig. 4 / Theorem 10) over a prepared bundle. The graph
// is available at every worker, so no block data is ever shipped; the
// engine balances the estimated workload W(Σ, G) across workers with the
// LPT greedy 2-approximation and runs local detection in parallel.
//
// Variants: Options.RandomAssign yields repran, Options.NoOptimize yields
// repnop.
//
// Cancellation is cooperative: workers check the context between work units
// and (strided) inside match enumeration, so a cancelled run aborts
// promptly and returns the context's error with partial instrumentation.
// When sink is non-nil, violations are delivered to it as they are found
// (each worker emitting on its own lane) and Result.Violations stays
// empty; a nil sink collects per worker, unions and sorts into
// Result.Violations.
//
// Detection runs under the fault-tolerant scheduler (runtime.go): worker
// panics are isolated, failed units are retried under Options.Retry, and
// when budgets exhaust the error is a *PartialError (errors.Is ErrPartial)
// with Result.Completeness carrying the census.
func RepValB(ctx context.Context, b *Bundle, opt Options, sink Sink) (*Result, error) {
	return runEngine(ctx, b, opt, sink, engine{})
}

// engine is what distinguishes the parallel engines from one another:
// Section 6's algorithms are one body — plan and partition W(Σ, G), then
// run local detection per work unit — differing in the assignment
// objective and in what a unit ships before it runs.
type engine struct {
	// frag, when set, is disVal's fragmentation: it fixes the worker count,
	// adds ownership accounting to planning, switches the assignment to
	// the bi-criteria objective, and arms the per-attempt block exchange.
	frag *fragment.Fragmentation
	// start, when set, supplies the slots (internal/dist's process fleet);
	// nil runs goroutine slots over the bundle's topology.
	start func(*DistPlan, *cluster.Cluster) (Executor, error)
}

// slots is the number of worker slots a run over frag (nil unless the
// engine is fragmented) schedules onto: the fragmentation fixes it —
// workers beyond frag.N would own no data.
func slots(opt Options, frag *fragment.Fragmentation) int {
	if frag != nil {
		return frag.N
	}
	return opt.Normalized().N
}

// wrapSlots, when set, wraps the goroutine slots runEngine schedules on:
// the seam through which the test suites fault a slot from outside. It is
// nil in production, and only _test.go files set it.
var wrapSlots func(Executor) Executor

// runEngine is the one engine body: plan → ship descriptors → schedule →
// union → Result.
func runEngine(ctx context.Context, b *Bundle, opt Options, sink Sink, e engine) (res *Result, err error) {
	res = &Result{}
	if err := ctx.Err(); err != nil {
		// A dead context must not pay for planning.
		return res, err
	}
	defer engineRecover(&err)
	opt = opt.Normalized()
	opt.N = slots(opt, e.frag)
	start := time.Now()
	cl := cluster.New(opt.N)
	defer func() {
		c := cl.Counters()
		res.BytesShipped, res.Messages, res.Rounds, res.MaxReceived = c.Bytes, c.Messages, c.Rounds, c.MaxReceived
	}()

	set, groups, gk := b.ruleGroupsKeyed(opt)
	res.Rules = set.Len()
	res.Groups = len(groups)

	// ---- bPar / disPar: the chunk plan (with ship costs under a
	// fragmentation) and its balanced n-partition, memoized per variant
	// (plan.go); warm rounds replay the plan and its shipments -----------
	estStart := time.Now()
	plan, err := b.planFor(cl, groups, gk, opt, e.frag)
	if err != nil {
		return res, err
	}
	res.EstimateSpan = plan.span
	res.SplitUnits = plan.chunks.split
	res.Units = len(plan.chunks.units)
	res.TotalWeight = plan.totalWeight
	res.Makespan = plan.makespan
	res.EstimateWall = time.Since(estStart)
	if err := ctx.Err(); err != nil {
		return res, err
	}

	// ---- localVio / dlocalVio: parallel local detection under the
	// fault-tolerant scheduler (runtime.go), which also ships each round's
	// unit descriptors; each unit runs its star test first ---------------
	sink, union := orCollect(sink, opt.N, res)
	run := &detectRun{ctx: ctx, cl: cl, units: plan.chunks.units, opt: opt, sink: sink}
	local := func() { run.exec, run.simulated = newGoroutines(ctx, b, opt, plan), true }
	if e.start == nil {
		local()
		if wrapSlots != nil {
			run.exec = wrapSlots(run.exec)
		}
	} else {
		view := &DistPlan{Set: set, Combine: gk.combine, Groups: len(groups), b: b, plan: plan}
		if run.exec, err = e.start(view, cl); err != nil {
			return res, err
		}
	}
	// Whatever path leaves this function — a coordinator-side panic
	// included — releases the slots; Close is idempotent.
	defer func() { run.exec.Close() }()
	var exchanged func() (prefetched, partials int)
	if e.frag != nil {
		run.prep, exchanged = blockExchange(b, cl, e.frag, plan, opt)
	}
	detStart := time.Now()
	span, comp, perr := run.run(plan.assign)
	if e.start != nil && perr != nil && !slices.Contains(run.live, true) && run.delivered() == 0 && ctx.Err() == nil {
		// Every supplied slot is gone with nothing achieved that a fresh
		// start would duplicate — no violation delivered (units that
		// completed without one, idle units answered by the coordinator
		// among them, just run again): run the same plan on goroutine slots
		// rather than report total failure. The fallback's slots are not
		// wrapped (wrapSlots): faults a test put on the run stay behind.
		run.exec.Close()
		local()
		span, comp, perr = run.run(plan.assign)
	}
	run.exec.Close()
	res.DetectWall = time.Since(detStart)
	res.DetectSpan = span
	res.Completeness = comp
	if exchanged != nil {
		cl.EndRound() // block/partial-match exchanges during detection
		res.PrefetchUnits, res.PartialUnits = exchanged()
	}

	// ---- union at the coordinator -------------------------------------
	union()
	res.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if perr != nil {
		return res, perr
	}
	return res, nil
}

const (
	unitDescriptorBytes = 16 // a unit's group, ranges and stripe on the wire
	candidateInfoBytes  = 16 // candidate + block-part size
	violationBytes      = 48 // rule name tag + match vector
)
