package validate

import (
	"time"

	"gfd/internal/fragment"
)

// Options configures the validation engines. The zero value is completed
// by Normalized(): the replicated engine, 4 workers, LPT/bi-criteria
// assignment, all optimizations on.
type Options struct {
	// Engine selects the algorithm a unified entry point (Prepared.Detect
	// / Prepared.Violations) runs; the direct engine functions ignore it.
	// EngineAuto resolves to EngineReplicated.
	Engine Engine
	// Frag supplies the fragmentation for EngineFragmented. When nil the
	// session hash-partitions the graph into N fragments (cached per
	// graph version). Ignored by the other engines.
	Frag *fragment.Fragmentation
	// N is the number of workers (processors); values below 1 mean 4.
	N int
	// RandomAssign replaces the LPT / bi-criteria assignment with uniform
	// random placement: the repran / disran variants.
	RandomAssign bool
	// NoOptimize disables the Appendix optimizations (multi-query pattern
	// grouping, symmetric work-unit deduplication, implication-based
	// workload reduction, replicate-and-split, and disVal's partial-match
	// shipping): the repnop / disnop variants.
	NoOptimize bool
	// NoReduce keeps implied rules even when optimizing; workload
	// reduction costs an implication test per rule, which the ablation
	// benchmarks isolate.
	NoReduce bool
	// SplitThreshold is θ of the replicate-and-split strategy: a pivot on
	// the topology's heavy-node list (graph.Snapshot.Heavy) whose degree
	// exceeds θ gets work units of its own, ⌈degree/θ⌉ stripes. 0 derives θ
	// from the graph (8× the mean degree, at least 32); negative disables
	// splitting.
	SplitThreshold int
	// Seed drives the random assignment variant.
	Seed int64

	// Retry is the per-unit retry budget the parallel engines apply when a
	// worker dies or a unit misses its deadline. The zero value normalizes
	// to DefaultRetryMax attempts beyond the first; Max < 0 disables
	// retries.
	Retry Retry
	// UnitDeadline bounds one attempt of one work unit: an attempt running
	// longer is abandoned (cooperatively, at the same strided checkpoints
	// as cancellation) and the unit is retried under the Retry budget.
	// 0 means no per-unit deadline.
	UnitDeadline time.Duration

	// StreamBuffer bounds the one channel of the pull-based pipeline
	// (Prepared.Violations): it holds this many violations per slot, plus
	// this many for the consumer, before an emitting worker blocks. 0
	// normalizes to DefaultStreamBuffer; the collect and callback sinks
	// ignore it.
	StreamBuffer int

	// Dist configures EngineDistributed (internal/dist): where the shard
	// manifest lives and how worker processes are supervised. Ignored by
	// every other engine; nil with EngineDistributed is an error.
	Dist *DistOptions
}

// Retry configures the parallel engines' unit retry policy: a unit may be
// re-attempted up to Max times beyond its first attempt. A failed unit goes
// to the scheduler's queue, and the slot that takes it backs off per unit
// (1ms, doubled per failed attempt, capped at 8ms) before the retry.
type Retry struct {
	Max int // retries per unit after the first attempt; < 0 disables
}

// DefaultRetryMax is the retry budget of a unit when Retry.Max is unset.
// Retries and their backoff only cost anything after a failure, so the
// default is safe for fault-free runs.
const DefaultRetryMax = 2

// DefaultStreamBuffer is the per-slot capacity of the pull-based violation
// pipeline's channel when Options.StreamBuffer is unset: deep enough to
// absorb bursts, small enough that an abandoned iterator bounds buffered
// work to a few KB per slot.
const DefaultStreamBuffer = 64

// Normalized fills unset fields with their defaults: the replicated
// engine, 4 workers, the default retry policy.
func (o Options) Normalized() Options {
	o.Engine = o.Engine.Resolve()
	if o.N < 1 {
		o.N = 4
	}
	if o.Retry.Max == 0 {
		o.Retry.Max = DefaultRetryMax
	} else if o.Retry.Max < 0 {
		o.Retry.Max = 0
	}
	if o.StreamBuffer <= 0 {
		o.StreamBuffer = DefaultStreamBuffer
	}
	return o
}

// Result carries the violation set plus the instrumentation the
// experiments report: measured walls and busy spans, and exact shipment
// counters. Nothing on it is modelled; ModeledTime and ModeledComm price
// the counters the way the paper's figures do.
type Result struct {
	Violations Report

	Rules  int // rules validated (after any reduction)
	Groups int // rule groups after multi-query combining
	Units  int // work units planned: class-range chunks, stripes included

	Wall         time.Duration // end-to-end wall-clock time on this host
	EstimateWall time.Duration // planning phase (wall)
	DetectWall   time.Duration // local detection phase, star tests included (wall)
	EstimateSpan time.Duration // planning span: the cut and the balance (disVal: plus its ship-cost superstep's max busy time)
	DetectSpan   time.Duration // detection span: max slot busy time per superstep, summed (one superstep unless a unit was queued after every slot returned)
	BytesShipped int64         // bytes shipped between slots and the coordinator
	Messages     int64         // shipments (a process fleet: frames)
	Rounds       int64         // communication rounds (BSP exchange barriers)
	MaxReceived  int64         // bytes into the busiest receiver, coordinator included

	Makespan    int64 // heaviest worker load (weight units)
	TotalWeight int64 // Σ unit weights ≈ sequential cost t(|Σ|,|G|)

	PrefetchUnits int // disVal: units evaluated by block prefetching
	PartialUnits  int // disVal: units evaluated by partial-match shipping
	SplitUnits    int // units produced by replicate-and-split

	// Completeness reports how much of the scheduled workload actually
	// completed: an honest answer instead of a silently clean report when
	// workers died or units exhausted their retry budgets. Filled by the
	// parallel engines (repVal / disVal / distributed — one scheduler, so
	// every field means the same thing for each); Complete() is trivially
	// true for the single-sink engines, which either finish or return an
	// error.
	Completeness Completeness
}

// Completeness is the execution census of one detection run under the
// fault-tolerant scheduler.
type Completeness struct {
	Units        int // work units scheduled
	Attempted    int // units started at least once
	Succeeded    int // units that completed
	Failed       int // units abandoned: retry budget exhausted or no live workers left
	Retries      int // re-attempts beyond each unit's first
	WorkerDeaths int // worker slots lost: recovered panics, dead worker processes
}

// Complete reports whether every scheduled unit succeeded. A cancelled
// run is not complete (unreached units are neither succeeded nor failed).
func (c Completeness) Complete() bool { return c.Succeeded == c.Units }

// ModeledTime is the simulated n-worker parallel time the paper's figures
// plot: the maximum per-worker busy time of each phase (workers are
// logical; compute is measured per worker and phases overlap only within
// a worker) plus ModeledComm. On a host with fewer cores than n this is
// the faithful scaling metric — wall time cannot drop below (total work /
// physical cores) regardless of n.
func (r *Result) ModeledTime() time.Duration {
	return r.EstimateSpan + r.DetectSpan + r.ModeledComm()
}

// The network the communication model prices, the gigabit-datacenter
// setting of the paper's EC2 cluster: each communication round (a BSP
// exchange barrier) costs one latency, and each receiver's occupancy is
// its received bytes over the link bandwidth.
const (
	roundLatency       = 500 * time.Microsecond
	linkBytesPerSecond = 125_000_000 // 1 Gbit/s
)

// ModeledComm is the paper's communication time (CC(w) = c_s·|M|, plotted
// in Fig. 5(j–l)) priced from the run's counters: one roundLatency per
// round plus the busiest receiver's bytes over linkBytesPerSecond.
// Shipments to different receivers within a round overlap — they are not
// serialized — which is how the paper's algorithms batch their exchanges.
func (r *Result) ModeledComm() time.Duration {
	return time.Duration(r.Rounds)*roundLatency +
		time.Duration(float64(r.MaxReceived)/float64(linkBytesPerSecond)*float64(time.Second))
}
