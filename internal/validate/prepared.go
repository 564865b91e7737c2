package validate

import (
	"context"
	"sync"
	"time"

	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/reason"
)

// Engine selects the detection algorithm a unified entry point runs. The
// session layer (internal/session, surfaced as gfd.Session) dispatches on
// it; the two baseline engines are executed there because they live in
// internal/baseline, which sits above this package.
type Engine uint8

const (
	// EngineAuto resolves to EngineReplicated, the paper's scalable
	// default (Theorem 10) and the right choice for a server with the
	// whole graph in memory.
	EngineAuto Engine = iota
	// EngineSequential is detVio (Section 5.1): exhaustive, exact, and
	// exponential in the worst case.
	EngineSequential
	// EngineReplicated is repVal (Theorem 10); Options.RandomAssign and
	// Options.NoOptimize select the repran / repnop variants.
	EngineReplicated
	// EngineFragmented is disVal (Theorem 11) over Options.Frag (or a
	// hash partition into Options.N fragments when unset).
	EngineFragmented
	// EngineGCFD is the path-restricted GCFD baseline of Exp-5.
	EngineGCFD
	// EngineBigDansing is the relational-join baseline of Exp-5.
	EngineBigDansing
	// EngineDistributed is the real shared-nothing runtime (internal/dist):
	// per-fragment worker processes over persisted .gfds shards, selected
	// through Options.Dist.
	EngineDistributed
)

// String names the engine as the paper does.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineSequential:
		return "detVio"
	case EngineReplicated:
		return "repVal"
	case EngineFragmented:
		return "disVal"
	case EngineGCFD:
		return "gcfd"
	case EngineBigDansing:
		return "bigdansing"
	case EngineDistributed:
		return "dist"
	}
	return "unknown"
}

// Resolve maps EngineAuto to the concrete default engine.
func (e Engine) Resolve() Engine {
	if e == EngineAuto {
		return EngineReplicated
	}
	return e
}

// Bundle is the compiled execution state every engine runs from: the
// compiled view of the graph (a frozen snapshot, or a delta overlay's
// patched view after small mutations) plus the rule side — the rule set
// lowered onto the view's symbol table. The rule side is paid once per
// (rule set, symbol table), and successive bundles over one table share it
// by pointer, so an update stream over one overlay pays it once:
//
//   - GFD literal lowering — X → Y literals as integer instructions;
//   - workload reduction (reason.Reduce) and multi-query grouping, lazily
//     per Options variant, each group's pivot lowered once
//     (workload.Pivot.Lower) so no unit looks up a name;
//   - a match.Plans over the table (Plans): each rule's pattern lowered
//     once (Plans.Compiled), for disVal's estimates, the incremental
//     detector's pins and every plan; the match plans at every version;
//     and the slot matchers that read them, pooled between calls.
//
// The rule side is the one owner of those lowerings; the rules, pivots and
// matchers keep none.
//
// The plans, their survivor memos and the hash fragmentations disVal runs
// over depend on the view, so they are cached per bundle and variant. A
// Bundle is valid for the graph version it was built at, and safe for
// concurrent readers. The session layer rebuilds bundles when the graph
// mutates.
type Bundle struct {
	topo  *graph.Snapshot
	rules *ruleSide

	mu sync.Mutex
	// est is the planning cache (see plan.go): chunk layouts with their
	// survivor memos and plans per option variant, probe counters.
	est estState
	// frags holds the n-way hash fragmentations of topo, keyed by n.
	frags map[int]*fragment.Fragmentation
}

// ruleSide is a rule set lowered onto one symbol table: every rule's
// literal program, and its pattern in plans, lowered by NewBundleOver, plus
// the reduction and grouping variants derived from them on first use.
// plans also holds the match plans and slot matchers. Bundles over the
// same table share it.
type ruleSide struct {
	set  *core.Set
	syms *graph.Symbols
	// interned: every rule name was interned before lowering, so the
	// lowering stays valid as a patched view's table grows.
	interned bool
	plans    *match.Plans

	mu      sync.Mutex
	reduced *core.Set
	groups  map[groupKey][]*ruleGroup
	// progs holds each rule's literal program and the programs Program
	// compiles for rules outside the set.
	progs map[*core.GFD]*core.LiteralProgram
}

// groupKey identifies one cached grouping variant.
type groupKey struct {
	combine bool // multi-query grouping on (not *nop)
	reduced bool // built over the reduced set
}

// NewBundle freezes g and eagerly lowers every rule of set onto the
// snapshot's symbol table.
func NewBundle(g *graph.Graph, set *core.Set) *Bundle {
	return NewBundleOver(g.Freeze(), set, nil)
}

// NewBundleOver builds a bundle over an externally supplied view — the
// session layer passes the graph's live overlay view after update batches
// instead of re-freezing. When prev (the bundle this one supersedes) holds
// the same rule set lowered onto the same symbol table, its rule side is
// shared, provided the names were interned before lowering or the view is
// frozen. Otherwise every rule is lowered anew: on a patched view, whose
// table grows with updates, every rule's labels and literal constants are
// interned first (pattern.InternInto / GFD.InternLiterals), since a name
// lowered to NoSym must mean "never occurs". A side lowered on a frozen
// table may hold such a dead name that a later update interns. A prev with
// the same rule set also donates its reduction and its planning-cache
// counters.
func NewBundleOver(view *graph.Snapshot, set *core.Set, prev *Bundle) *Bundle {
	b := &Bundle{topo: view}
	syms := view.Syms()
	var reduced *core.Set
	if prev != nil && prev.rules.set == set {
		prev.mu.Lock()
		b.est.builds, b.est.reuses = prev.est.builds, prev.est.reuses
		prev.mu.Unlock()
		b.est.measured.Store(prev.est.measured.Load())
		prs := prev.rules
		if prs.syms == syms && (prs.interned || !view.Patched()) {
			b.rules = prs
			return b
		}
		prs.mu.Lock()
		reduced = prs.reduced
		prs.mu.Unlock()
	}
	b.rules = &ruleSide{
		set:      set,
		syms:     syms,
		interned: view.Patched(),
		reduced:  reduced,
		groups:   make(map[groupKey][]*ruleGroup, 2),
		plans:    match.NewPlans(syms, view.Patched()),
		progs:    make(map[*core.GFD]*core.LiteralProgram, set.Len()),
	}
	for _, f := range set.Rules() {
		b.rules.plans.Compiled(f.Q)
		if view.Patched() {
			f.InternLiterals(syms)
		}
		b.rules.progs[f] = f.CompileLiterals(syms)
	}
	return b
}

// Program returns f's literal program lowered onto the bundle's symbol
// table: the one NewBundleOver compiled for prepared rules, a compile-and-
// keep for rules outside the set (e.g. the GCFD baseline's encodings).
func (b *Bundle) Program(f *core.GFD) *core.LiteralProgram {
	rs := b.rules
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if p, ok := rs.progs[f]; ok {
		return p
	}
	if rs.interned {
		f.InternLiterals(rs.syms)
	}
	p := f.CompileLiterals(rs.syms)
	rs.progs[f] = p
	return p
}

// Plans returns the rule side's lowering of every pattern and its plan
// cache, shared by its bundles.
func (b *Bundle) Plans() *match.Plans { return b.rules.plans }

// Topo returns the compiled view the engines run against: a frozen
// snapshot, or the graph's live overlay view after an update batch. Its
// Graph is the source graph the bundle was compiled from.
func (b *Bundle) Topo() *graph.Snapshot { return b.topo }

// Fragmentation returns the n-way hash fragmentation of the bundle's view,
// cut on first use and kept per n, bounded like the plans
// (maxPlanEntries), so repeated fragmented-engine rounds stop
// re-partitioning. It cuts the view the engines run on — the live overlay
// after an update batch — so it never re-freezes.
func (b *Bundle) Fragmentation(n int) *fragment.Fragmentation {
	n = max(n, 1)
	b.mu.Lock()
	defer b.mu.Unlock()
	if f := b.frags[n]; f != nil {
		return f
	}
	return publish(&b.frags, n, maxPlanEntries, fragment.PartitionSnapshot(b.topo, n, fragment.Hash))
}

// Set returns the full (unreduced) rule set.
func (b *Bundle) Set() *core.Set { return b.rules.set }

// ruleSet resolves the effective rule set under opt, caching the
// implication-based reduction so a prepared session pays it once, not
// once per Detect round.
func (b *Bundle) ruleSet(opt Options) *core.Set {
	rs := b.rules
	if opt.NoOptimize || opt.NoReduce || rs.set.Len() <= 1 {
		return rs.set
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.reduced == nil {
		rs.reduced = reason.Reduce(rs.set)
	}
	return rs.reduced
}

// ruleGroupsKeyed resolves the effective rule set and its multi-query
// groups under opt, cached per variant on the rule side, plus the variant
// key — the planning cache keys off it.
func (b *Bundle) ruleGroupsKeyed(opt Options) (*core.Set, []*ruleGroup, groupKey) {
	set := b.ruleSet(opt)
	key := groupKey{
		combine: !opt.NoOptimize,
		reduced: set != b.rules.set,
	}
	rs := b.rules
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if gs, ok := rs.groups[key]; ok {
		return set, gs, key
	}
	gs := buildGroups(set.Rules(), key.combine)
	for _, grp := range gs {
		grp.bind(rs)
	}
	rs.groups[key] = gs
	return set, gs, key
}

// Warm precomputes the reduction and grouping variant opt selects, so a
// later timed Detect with the same options pays nothing beyond
// planning and enumeration. Variants not warmed cache on first use.
func (b *Bundle) Warm(opt Options) { b.ruleGroupsKeyed(opt) }

// cancelStride is how many per-match checkpoints pass between actual
// ctx.Err() consultations: Err takes the context's mutex, which the
// zero-alloc enumeration hot path must not hit per match.
const cancelStride = 64

// cancelCheck is a per-worker cooperative cancellation probe, optionally
// carrying a per-unit deadline (the fault-tolerant scheduler arms one per
// attempt). It is not safe for concurrent use; every worker owns one.
type cancelCheck struct {
	ctx         context.Context
	deadline    time.Time // per-attempt deadline; zero = none
	n           uint32
	hit         bool // context expired — the whole run must stop
	deadlineHit bool // only the current attempt's deadline expired
}

// arm sets the current attempt's deadline and clears any expiry left over
// from the previous unit.
func (c *cancelCheck) arm(deadline time.Time) {
	c.deadline = deadline
	c.deadlineHit = false
}

// disarm clears the per-attempt deadline (and its expiry flag) so the
// worker's between-unit checks see only the context.
func (c *cancelCheck) disarm() {
	c.deadline = time.Time{}
	c.deadlineHit = false
}

// canceled reports whether the run (context) or the current attempt
// (deadline) is done, consulting the clocks on the first call and then
// every cancelStride calls.
func (c *cancelCheck) canceled() bool {
	if c == nil {
		return false
	}
	if c.hit || c.deadlineHit {
		return true
	}
	c.n++
	if c.n != 1 && c.n%cancelStride != 0 {
		return false
	}
	if c.ctx.Err() != nil {
		c.hit = true
		return true
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		c.deadlineHit = true
		return true
	}
	return false
}
