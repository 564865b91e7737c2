package validate

import (
	"context"

	"gfd/internal/cluster"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// DisValB is the parallel error-detection algorithm for fragmented graphs
// (Section 6.2 / Theorem 11) over a prepared bundle. Each fragment F_i
// resides at worker i; the coordinator assembles work units from
// per-fragment partial units and computes a bi-criteria assignment that
// balances load while minimizing the data shipped to assemble each unit's
// block. Local detection then chooses per unit between prefetching the
// missing block parts and shipping partial matches, whichever is estimated
// cheaper.
//
// Variants: Options.RandomAssign yields disran, Options.NoOptimize yields
// disnop (no grouping/dedup/splitting, always prefetch).
//
// Cancellation, streaming and the fault-tolerant detection scheduler follow
// RepValB's contract — both are the one engine body (runEngine); a retried
// or reassigned unit re-runs its prefetch / partial-match exchange on the
// new worker, so recovery pays its shipping like the paper's model demands.
func DisValB(ctx context.Context, b *Bundle, frag *fragment.Fragmentation, opt Options, sink Sink) (*Result, error) {
	return runEngine(ctx, b, opt, sink, engine{frag: frag})
}

// blockExchange is dlocalVio's prefetch / partial-match choice, run in the
// scheduler's per-attempt prep hook: a unit reassigned after a worker death
// (or retried after a deadline miss) re-ships its block to the worker that
// actually runs it — recovery is charged, not free. totals reports how many
// attempts took each strategy.
func blockExchange(b *Bundle, cl *cluster.Cluster, frag *fragment.Fragmentation, groups []*ruleGroup, units []workUnit, opt Options) (prep func(w, ui int), totals func() (prefetched, partials int)) {
	// Per-worker tallies; worker w is the only writer of its entries.
	nPrefetch := make([]int, opt.N)
	nPartial := make([]int, opt.N)
	prep = func(w, ui int) {
		u := units[ui]
		shipped := u.shipBytes[w]
		partial := false
		// Weighing partial-match shipping against prefetching costs a scan
		// of the block; it is only worth considering when the prefetch is
		// substantial.
		if !opt.NoOptimize && shipped > minPartialConsideration {
			if pb := partialMatchBytes(b.topo, frag, groups[u.group], u, w, shipped); pb < shipped {
				shipped, partial = pb, true
			}
		}
		if shipped > 0 {
			// Data arrives from each fragment owning a missing part;
			// charge it as one bulk transfer into w.
			cl.Ship(owningPeer(frag, u, w), w, shipped)
		}
		if partial {
			nPartial[w]++
		} else {
			nPrefetch[w]++
		}
	}
	totals = func() (prefetched, partials int) {
		for w := range nPrefetch {
			prefetched += nPrefetch[w]
			partials += nPartial[w]
		}
		return prefetched, partials
	}
	return prep, totals
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
// block is the caller's scratch set, refilled per unit.
func attachShipCosts(topo graph.Topology, frag *fragment.Fragmentation, block *graph.EpochSet, u *workUnit) {
	fillBlock(block, topo, u)
	view := topo.View()
	u.shipBytes = make([]int64, frag.N)
	var total int64
	perOwner := make([]int64, frag.N)
	for _, v := range block.Members() {
		b := fragment.NodeBytes(view, v)
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
func partialMatchBytes(topo graph.Topology, frag *fragment.Fragmentation, grp *ruleGroup, u workUnit, w int, prefetchBytes int64) int64 {
	view := topo.View()
	block := u.BlockIn(topo)
	syms := pattern.CompileFor(grp.q, view.Syms()).NodeSyms
	var upper int64
	for v := range block {
		if frag.OwnerOf(v) == w {
			continue
		}
		l := view.Label(v)
		for _, sym := range syms {
			if pattern.LabelMatchesSym(sym, l) {
				upper += partialDescriptorBytes
			}
		}
	}
	if upper >= prefetchBytes {
		return upper // cannot win; skip the fixpoint
	}
	sim := match.Simulate(view, grp.q, block)
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

// owningPeer picks the representative source of the bulk transfer into w.
// The exact source split does not change totals; attribute to the fragment
// owning the first candidate not local to w, else to worker 0 (worker 1
// when w is worker 0 itself — a transfer to oneself is free).
func owningPeer(frag *fragment.Fragmentation, u workUnit, w int) int {
	for _, c := range u.Candidates {
		if o := frag.OwnerOf(c); o != w {
			return o
		}
	}
	if w == 0 && frag.N > 1 {
		return 1
	}
	return 0
}
