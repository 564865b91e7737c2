package validate

import (
	"context"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// DisVal is the parallel error-detection algorithm for fragmented graphs
// (Section 6.2 / Theorem 11). Each fragment F_i resides at worker i; the
// coordinator assembles work units from per-fragment partial units and
// computes a bi-criteria assignment that balances load while minimizing
// the data shipped to assemble each unit's block. Local detection then
// chooses per unit between prefetching the missing block parts and
// shipping partial matches, whichever is estimated cheaper.
//
// Variants: Options.RandomAssign yields disran, Options.NoOptimize yields
// disnop (no grouping/dedup/splitting, always prefetch).
//
// It builds a one-shot bundle per call; callers validating the same graph
// repeatedly should hold a session (gfd.NewSession) and Detect with
// EngineFragmented instead.
func DisVal(g *graph.Graph, frag *fragment.Fragmentation, set *core.Set, opt Options) *Result {
	res, _ := DisValB(context.Background(), NewBundle(g, set), frag, opt, nil)
	return res
}

// DisValB is disVal over a prepared bundle with cooperative cancellation
// and optional streaming, with the same contract as RepValB — including
// the fault-tolerant detection scheduler (runtime.go): a retried or
// reassigned unit re-runs its prefetch / partial-match exchange on the new
// worker, so recovery pays its shipping like the paper's model demands.
func DisValB(ctx context.Context, b *Bundle, frag *fragment.Fragmentation, opt Options, sink Sink) (res *Result, err error) {
	if err := ctx.Err(); err != nil {
		// A dead context must not pay for the estimation phase.
		return &Result{}, err
	}
	res = &Result{}
	defer engineRecover(&err)
	opt = opt.Normalized()
	if frag.N != opt.N {
		// The fragmentation fixes worker count; workers beyond frag.N
		// would own no data.
		opt.N = frag.N
	}
	g := b.g
	start := time.Now()
	cl := cluster.New(opt.N, opt.Cost)
	inj := opt.Inject.Arm(opt.N)
	cl.Arm(inj)

	set, groups, gk := b.ruleGroupsKeyed(opt)
	res.Rules = set.Len()
	res.Groups = len(groups)
	topo := b.topo

	// ---- disPar: estimation with border/ownership accounting, plus the
	// split and bi-criteria assignment — all memoized per (variant,
	// fragmentation); warm rounds replay the plan and its comm charges
	// and skip the work (estimate.go).
	estStart := time.Now()
	plan, estSpan, err := b.planFor(cl, groups, gk, opt, frag)
	if err != nil {
		return res, err
	}
	res.EstimateSpan = estSpan
	res.SplitUnits = plan.split
	res.Units = len(plan.units)
	res.TotalWeight = plan.totalWeight
	res.Makespan = plan.makespan
	res.EstimateWall = time.Since(estStart)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	units := plan.units
	for w, idxs := range plan.assign {
		cl.Ship(cluster.Coordinator, w, int64(len(idxs))*unitDescriptorBytes)
	}
	cl.EndRound()

	// ---- dlocalVio: detection with prefetch / partial-match choice,
	// under the fault-tolerant scheduler. The block exchange runs in the
	// per-attempt prep hook, so a unit reassigned after a worker death (or
	// retried after a deadline miss) re-ships its block to the worker that
	// actually runs it — recovery is charged, not free.
	detStart := time.Now()
	var collect *CollectSink
	if sink == nil {
		collect = NewCollectSink(opt.N)
		sink = collect
	}
	prefetched := make([]int, opt.N)
	partials := make([]int, opt.N)
	prep := func(w, ui int) {
		u := units[ui]
		grp := groups[u.group]
		shipped := u.shipBytes[w]
		strategy := "prefetch"
		// Weighing partial-match shipping against prefetching costs a
		// scan of the block; it is only worth considering when the
		// prefetch is substantial.
		if !opt.NoOptimize && shipped > minPartialConsideration {
			if pb := partialMatchBytes(g, topo, frag, grp, u, w, shipped); pb < shipped {
				shipped = pb
				strategy = "partial"
			}
		}
		if shipped > 0 {
			// Data arrives from each fragment owning a missing part;
			// charge it as one bulk transfer into w.
			cl.Ship(owningPeer(frag, u, w), w, shipped)
		}
		if strategy == "partial" {
			partials[w]++
		} else {
			prefetched[w]++
		}
	}
	run := &detectRun{ctx: ctx, cl: cl, topo: topo, groups: groups, units: units, opt: opt, sink: sink, inj: inj, prep: prep}
	span, comp, perr := run.run(plan.assign)
	res.DetectWall = time.Since(detStart)
	res.DetectSpan = span
	res.Completeness = comp
	cl.EndRound() // block/partial-match exchanges during detection

	for w, cnt := range run.counts {
		cl.Ship(w, cluster.Coordinator, cnt*violationBytes)
		res.PrefetchUnits += prefetched[w]
		res.PartialUnits += partials[w]
	}
	cl.EndRound()
	if collect != nil {
		res.Violations = collect.Report()
		res.Violations.Sort()
	}

	st := cl.Stats()
	res.BytesShipped = st.TotalBytes
	res.Messages = st.TotalMsgs
	res.Comm = cl.CommTime()
	res.Wall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if perr != nil {
		return res, perr
	}
	return res, nil
}

// commCostWeight converts shipped bytes into load-comparable units for the
// bi-criteria greedy (c_s in the paper's CC(w) = c_s·|M|). Block sizes are
// |V|+|E| counts while shipping is in bytes; one block element is worth
// roughly a few tens of bytes on the wire.
const commCostWeight = 1.0 / 32

// chargeCandidateMessages accounts the M_i estimation messages of disPar:
// every fragment reports its local pivot candidates (candidate id,
// block-part size, border nodes) to the coordinator as one batched message
// per fragment, sized per candidate descriptor. Charges go through ship so
// the estimation cache can record and replay them.
func chargeCandidateMessages(topo graph.Topology, ship func(from, to int, bytes int64), frag *fragment.Fragmentation, groups []*ruleGroup) {
	type key struct {
		node  graph.NodeID
		owner int
	}
	seen := make(map[key]struct{})
	perOwner := make([]int64, frag.N)
	for _, grp := range groups {
		for i := 0; i < grp.pivot.Arity(); i++ {
			for _, c := range grp.pivot.CandidatesIn(topo, i) {
				k := key{c, frag.OwnerOf(c)}
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				perOwner[k.owner] += candidateInfoBytes + int64(frag.N)*8
			}
		}
	}
	for owner, bytes := range perOwner {
		if bytes > 0 {
			ship(owner, cluster.Coordinator, bytes)
		}
	}
}

// attachShipCosts computes, for every worker, the bytes that must be
// shipped to it to assemble the unit's data block (its non-local part).
func attachShipCosts(g *graph.Graph, topo graph.Topology, frag *fragment.Fragmentation, u *workUnit) {
	block := u.BlockIn(topo).Sorted()
	u.shipBytes = make([]int64, frag.N)
	var total int64
	perOwner := make([]int64, frag.N)
	for _, v := range block {
		b := fragment.NodeBytes(g, v)
		perOwner[frag.OwnerOf(v)] += b
		total += b
	}
	for w := 0; w < frag.N; w++ {
		u.shipBytes[w] = total - perOwner[w]
	}
}

// partialMatchBytes estimates the cost of the partial-match shipping
// strategy: the graph-simulation relation of the group pattern restricted
// to the unit's block over-approximates the partial matches that would be
// exchanged; each pair costs a fixed descriptor. Only pairs on nodes not
// owned by worker w need shipping.
//
// The simulation fixpoint is only worth computing when it could win: a
// label-compatibility count (an upper bound on the simulation size, O(1)
// per block node) prefilters units whose partial matches could not beat
// prefetching, keeping the strategy selector itself cheap — the paper's
// dlocalVio likewise estimates before exchanging.
func partialMatchBytes(g *graph.Graph, topo graph.Topology, frag *fragment.Fragmentation, grp *ruleGroup, u workUnit, w int, prefetchBytes int64) int64 {
	block := u.BlockIn(topo)
	var upper int64
	for v := range block {
		if frag.OwnerOf(v) == w {
			continue
		}
		l := g.Label(v)
		for _, n := range grp.q.Nodes {
			if pattern.LabelMatches(n.Label, l) {
				upper += partialDescriptorBytes
			}
		}
	}
	if upper >= prefetchBytes {
		return upper // cannot win; skip the fixpoint
	}
	sim := match.Simulate(g, grp.q, block)
	var pairs int64
	for _, s := range sim {
		for v := range s {
			if frag.OwnerOf(v) != w {
				pairs++
			}
		}
	}
	return pairs * partialDescriptorBytes
}

// partialDescriptorBytes is the wire size of one (pattern node, graph
// node) partial-match descriptor.
const partialDescriptorBytes = 24

// minPartialConsideration is the prefetch size (bytes) below which the
// partial-match alternative is not even evaluated.
const minPartialConsideration = 4096

// owningPeer picks the peer fragment contributing the largest missing
// block part, as the representative source of the bulk transfer.
func owningPeer(frag *fragment.Fragmentation, u workUnit, w int) int {
	// The exact source split does not change totals; attribute to the
	// fragment owning the first candidate not local to w, else worker 0.
	for _, c := range u.Candidates {
		if o := frag.OwnerOf(c); o != w {
			return o
		}
	}
	if w == 0 && frag.N > 1 {
		return 1
	}
	if w != 0 {
		return 0
	}
	return 0
}
