package validate

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/workload"
)

// This file is the seam between the engine body and the shared-nothing
// runtime in internal/dist: the body's entry point for a caller-supplied
// Executor (DetectOver), the view of the plan that executor ships from
// (DistPlan), and the per-unit execution body (UnitRunner) that goroutine
// slots and worker processes both run. What crosses the process boundary
// is only units (Unit: a group, class ranges and a stripe), halo data, and
// violations.

// DistOptions configures EngineDistributed. It is carried on
// Options.Dist and ignored by every other engine.
type DistOptions struct {
	// ManifestPath locates the shard manifest written by
	// fragment.SaveShards / gfdgen -fragments (a JSON file naming the
	// per-fragment .gfds files, the partition strategy, and the node
	// count). Required.
	ManifestPath string
	// Command is the argv prefix used to spawn one worker process per
	// shard. Empty defaults to re-executing the current binary; the child
	// is recognized by environment (dist.MaybeWorker), not by flags, so
	// any binary that calls MaybeWorker early in main works.
	Command []string
	// HeartbeatInterval is how often an idle worker writes a heartbeat
	// frame; the coordinator declares a worker lost after three silent
	// intervals. 0 defaults to dist.DefaultHeartbeat.
	HeartbeatInterval time.Duration
	// HandshakeTimeout bounds spawn-to-READY; a worker that cannot open
	// its shard in time is killed and its units go to the retry queue,
	// where live slots take them. 0 defaults to dist.DefaultHandshakeTimeout.
	HandshakeTimeout time.Duration
	// MaxRespawns caps how many replacement processes the coordinator
	// starts per worker slot after a death. Negative disables respawn; 0
	// defaults to 1.
	MaxRespawns int
}

// Range is a unit's range of a pivot class.
type Range = workload.Range

// Unit is one work unit of a chunk plan: a rule group, one range of each
// of its pivot components' classes, and a stripe. The planner cuts it, the
// scheduler queues it, a slot runs it and the ASSIGN frame carries it, so
// a worker process that rebuilds the identical rule groups from the shipped
// effective rule set runs exactly the unit the in-process engines would.
// Its work is every match with each pivot bound to a candidate of its
// range (the range members that pass the star test, found by the slot
// that runs the unit, over its own view); units partition the candidate
// vectors w = ⟨v̄_z, G_z̄⟩ of the paper's workload model, so validating a
// GFD reduces to running each unit. The balancers' weights and disVal's
// ship costs are the plan's, beside its units.
type Unit struct {
	ID        int     // index into the plan's units — the unit's global identity
	Group     int     // rule-group index (group order is deterministic in rule order)
	Ranges    []Range // per pivot component, a range of its class
	StripeMod int     // 0 = unstriped
	StripeRem int
}

// DistPlan is what the engine body hands an out-of-process Executor about
// the plan it is about to schedule: the effective rule set (post-reduction
// — workers must not reduce again), the grouping flag workers need to
// rebuild identical group indices, and the plan's units. Assignment,
// attempts and accounting stay with the scheduler.
type DistPlan struct {
	Set     *core.Set // effective rule set; ship via core.WriteRules
	Combine bool      // multi-query grouping was applied
	Groups  int

	b    *Bundle
	plan *planEntry
}

// Unit returns the plan's unit i.
func (p *DistPlan) Unit(i int) Unit { return p.plan.chunks.units[i] }

// Idle reports whether unit i has no pivot candidate on the coordinator's
// topology — then it has no match on any worker either, and needs no
// frame. The star test runs once per plan (the survivor memo).
func (p *DistPlan) Idle(i int) bool {
	return len(p.b.candidatesOf(p.plan.chunks, i)[len(p.plan.chunks.units[i].Ranges)-1]) == 0
}

// FillBlock resets set to unit i's data block — the union of its pivot
// candidates' radius neighborhoods — on the coordinator's topology. The
// coordinator selects from it the non-owned nodes a worker needs shipped
// (the halo), so that every candidate the worker's star test must keep,
// and every node of its block, carries its full adjacency on the worker
// and the unit's enumeration finds every match there.
func (p *DistPlan) FillBlock(set *graph.EpochSet, i int) {
	fillBlock(set, p.b.topo, p.plan.chunks.pivot(i), p.b.candidatesOf(p.plan.chunks, i))
}

// DetectOver is the engine body with the caller's slots: start receives the
// plan and the run's shipment counters and returns the Executor the
// scheduler drives (internal/dist returns its process fleet). The plan is
// cut on the bundle's replicated topology with opt.N slots —
// ownership lives with the executor (a shard manifest), not in an
// in-memory Fragmentation, so planning performs no partition and no
// snapshot build. When every slot is lost before anything was delivered,
// the same plan runs on goroutine slots instead: degrading is an executor
// swap, not a second engine.
func DetectOver(ctx context.Context, b *Bundle, opt Options, sink Sink, start func(*DistPlan, *cluster.Cluster) (Executor, error)) (*Result, error) {
	return runEngine(ctx, b, opt, sink, engine{start: start})
}

// UnitRunner executes the plan's units on one slot — the Unit values the
// planner cut, as the scheduler queued them or an ASSIGN frame carried
// them: the star test at the head of each unit, one striped enumeration of
// its survivors with every pivot pinned to its list (two for a deduped
// symmetric pair), the literal check of each match, the exactly-once skip
// count and the cooperative per-attempt deadline. Goroutine slots and
// worker processes both run it — over the bundle's shared topology, or a
// worker's shard-backed one — so those exist once. It is single-threaded,
// like a slot's unit loop (a slot runs its units one at a time, in queue
// order), and reuses its matcher, pins and match scratch across units, so
// the per-unit path stays off the allocator.
type UnitRunner struct {
	groups   []*ruleGroup
	m        *match.Matcher
	pins     []match.Pin
	scratch  core.Match
	cancel   *cancelCheck
	halt     func() bool // cancel.canceled bound once; threaded into enumeration
	noOpt    bool
	deadline time.Duration
	// candsOf, when set, serves a unit's candidates from its plan's survivor
	// memo (goroutine slots); nil runs the star test on the runner's view.
	candsOf func(ui int) [][]graph.NodeID

	// Per-attempt state, read by onMatch and deliver (bound once as visit
	// and out, so the per-unit path allocates no closure): the unit's
	// group, the skip count, the violations found and the caller's emit.
	grp         *ruleGroup
	skip, found int64
	emit        func(Violation)
	out         func(Violation)
	visit       func(core.Match) bool
}

// NewUnitRunner prepares a runner over a bundle for one slot. In a
// worker process opt must carry the grouping flag the coordinator shipped
// (NoOptimize=!Combine) with NoReduce=true, so the worker's group indices
// match the coordinator's plan. opt.UnitDeadline arms the
// cooperative per-attempt deadline (a worker process leaves it zero: its
// coordinator enforces the deadline by killing it).
func NewUnitRunner(ctx context.Context, b *Bundle, opt Options) *UnitRunner {
	opt = opt.Normalized()
	_, groups, _ := b.ruleGroupsKeyed(opt)
	cancel := &cancelCheck{ctx: ctx}
	r := &UnitRunner{
		groups:   groups,
		m:        b.rules.plans.Get(b.topo),
		cancel:   cancel,
		halt:     cancel.canceled,
		noOpt:    opt.NoOptimize,
		deadline: opt.UnitDeadline,
	}
	r.out, r.visit = r.deliver, r.onMatch
	return r
}

// Groups returns how many rule groups the runner rebuilt — the worker
// sanity-checks it against the coordinator's count during the handshake.
func (r *UnitRunner) Groups() int { return len(r.groups) }

// ErrBadUnit marks a unit descriptor that does not fit the runner's
// groups or topology: an unknown group, a range count other than the
// group's pivot count, a range outside its class, or a stripe out of
// range. A worker process treats it as a protocol error.
var ErrBadUnit = errors.New("validate: malformed unit descriptor")

// Run executes one unit as the plan or an ASSIGN frame gave it, after
// checking it against the runner's groups and each range against its class
// on the runner's own view. Of the violations the unit enumerates, the first
// skip are suppressed without emission — the exactly-once retry dedupe:
// enumeration order is deterministic for a
// given shard + halo, so a retried unit resumes past what a previous
// incarnation already delivered. A non-nil error reports a malformed
// descriptor (ErrBadUnit), cancellation, or a missed deadline; panics
// are deliberately NOT recovered — in a worker
// process a panic must crash the process so the coordinator sees a death,
// not a silently shortened unit, and a goroutine slot's scheduler recovers
// it with unit context.
func (r *UnitRunner) Run(u Unit, skip int64, emit func(Violation)) error {
	if u.Group < 0 || u.Group >= len(r.groups) {
		return fmt.Errorf("%w: unit %d names group %d of %d", ErrBadUnit, u.ID, u.Group, len(r.groups))
	}
	grp := r.groups[u.Group]
	if len(u.Ranges) != grp.pivot.Arity() {
		return fmt.Errorf("%w: unit %d carries %d ranges, group %d pivots %d",
			ErrBadUnit, u.ID, len(u.Ranges), u.Group, grp.pivot.Arity())
	}
	topo := r.m.Topo()
	for i, rg := range u.Ranges {
		if n := grp.pivot.ClassLen(topo, i); rg.Lo < 0 || rg.Lo > rg.Hi || rg.Hi > n {
			return fmt.Errorf("%w: unit %d range %d is [%d, %d) of a class of %d", ErrBadUnit, u.ID, i, rg.Lo, rg.Hi, n)
		}
	}
	if u.StripeMod < 0 || u.StripeMod > 0 && (u.StripeRem < 0 || u.StripeRem >= u.StripeMod) {
		return fmt.Errorf("%w: unit %d stripe %d mod %d", ErrBadUnit, u.ID, u.StripeRem, u.StripeMod)
	}
	return r.run(grp, &u, skip, emit)
}

func (r *UnitRunner) run(grp *ruleGroup, u *Unit, skip int64, emit func(Violation)) error {
	if r.cancel.canceled() {
		return r.cancel.ctx.Err()
	}
	r.skip, r.found, r.emit = skip, 0, emit
	if r.deadline > 0 {
		r.cancel.arm(time.Now().Add(r.deadline))
	}
	var cands [][]graph.NodeID
	if r.candsOf != nil {
		cands = r.candsOf(u.ID)
	} else {
		cands = unitCandidates(r.m.Topo(), grp.pivot, u.Ranges)
	}
	r.detect(grp, u, cands)
	expired := r.cancel.deadlineHit
	r.cancel.disarm()
	switch {
	case expired:
		return context.DeadlineExceeded
	case r.cancel.hit:
		return r.cancel.ctx.Err()
	}
	return nil
}

// detect enumerates the matches of the unit's group pattern with each
// pivot pinned to its candidates cands, in one call, and checks every
// group dependency on each match, delivering violations through the skip
// count. The data block is implicit: a match lies within its components'
// radii of the pivots, and on a dist shard the block's nodes carry full
// adjacency (owned or halo). A symmetric two-component group whose units
// hold only the range pairs i ≤ j (deduped) enumerates an off-diagonal
// unit a second time with the two lists swapped; a diagonal unit's
// ordered pairs are both orders already.
func (r *UnitRunner) detect(grp *ruleGroup, u *Unit, cands [][]graph.NodeID) {
	if slices.ContainsFunc(cands, func(c []graph.NodeID) bool { return len(c) == 0 }) {
		return // some pivot has no candidate
	}
	r.grp = grp
	r.pins = r.pins[:0]
	for i, z := range grp.pivot.Vars {
		r.pins = append(r.pins, match.Pin{Node: z, To: cands[i]})
	}
	opts := match.Options{
		Pins:       r.pins,
		StripeMod:  u.StripeMod,
		StripeRem:  u.StripeRem,
		StripeNode: grp.stripe,
		// Prunes a prefix once every member has a failed X literal.
		Guard: grp.guard,
		// Early termination must reach candidate enumeration itself:
		// without the halt probe a cancelled run only notices between
		// matches, which on a matchless stretch of a huge class is never.
		Halt: r.halt,
	}
	r.m.Enumerate(grp.q, opts, r.visit)
	if !r.noOpt && grp.pivot.Symmetric() && u.Ranges[0] != u.Ranges[1] && !r.cancel.canceled() {
		r.pins[0].To, r.pins[1].To = cands[1], cands[0]
		r.m.Enumerate(grp.q, opts, r.visit)
	}
}

// onMatch checks the current unit's group dependencies on one match.
func (r *UnitRunner) onMatch(m core.Match) bool {
	if r.cancel.canceled() {
		return false
	}
	r.grp.checkMatch(r.m.Topo(), m, &r.scratch, r.out)
	return true
}

// deliver is the skip-count wrapper above the caller's emit.
func (r *UnitRunner) deliver(v Violation) {
	if r.found++; r.found > r.skip {
		r.emit(v)
	}
}
