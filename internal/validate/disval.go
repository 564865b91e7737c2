package validate

import (
	"context"
	"errors"
	"runtime"

	"gfd/internal/cluster"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/workload"
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
// unit re-runs its prefetch / partial-match exchange on whichever worker
// takes it from the retry queue, so recovery pays its shipping like the
// paper's model demands.
func DisValB(ctx context.Context, b *Bundle, frag *fragment.Fragmentation, opt Options, sink Sink) (*Result, error) {
	return runEngine(ctx, b, opt, sink, engine{frag: frag})
}

// blockExchange is dlocalVio's prefetch / partial-match choice, run in the
// scheduler's per-attempt prep hook: a unit retried after a worker death
// or a deadline miss re-ships its block to the worker that takes it —
// recovery is charged, not free. totals reports how many
// attempts took each strategy.
func blockExchange(b *Bundle, cl *cluster.Cluster, frag *fragment.Fragmentation, plan *planEntry, opt Options) (prep func(w, ui int), totals func() (prefetched, partials int)) {
	// Per-worker tallies; worker w is the only writer of its entries.
	nPrefetch := make([]int, opt.N)
	nPartial := make([]int, opt.N)
	blocks := make([]*graph.EpochSet, opt.N)
	prep = func(w, ui int) {
		cands := b.candidatesOf(plan.chunks, ui)
		shipped := plan.ship[ui][w]
		partial := false
		// Weighing partial-match shipping against prefetching costs a scan
		// of the block; it is only worth considering when the prefetch is
		// substantial.
		if !opt.NoOptimize && shipped > minPartialConsideration {
			if blocks[w] == nil {
				blocks[w] = graph.NewEpochSet(b.topo.NumNodes())
			}
			grp := plan.chunks.groups[plan.chunks.units[ui].Group]
			if pb := partialMatchBytes(b, frag, grp, cands, blocks[w], w, shipped); pb < shipped {
				shipped, partial = pb, true
			}
		}
		if shipped > 0 {
			// Data arrives from each fragment owning a missing part;
			// charge it as one bulk transfer into w.
			cl.Ship(owningPeer(frag, cands, w), w, shipped)
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

// attachShipCosts is disPar's exchange, one superstep: every worker runs
// the star tests of its share of the plan's units (into the survivor memo
// detection reads) and computes, per unit, the bytes each worker would
// need shipped to assemble the unit's block — the blocks of its
// candidates, the only blocks planning traverses. The fragments' candidate
// reports (M_i) are charged and recorded for replay. The costs go to
// p.ship; the superstep's span joins p.span.
func (b *Bundle) attachShipCosts(cl *cluster.Cluster, p *planEntry, frag *fragment.Fragmentation) error {
	cs, n, view := p.chunks, cl.N(), b.topo
	p.ship = make([][]int64, len(cs.units))
	busy, deaths := cluster.Fan(n, runtime.NumCPU(), func(w int) {
		var block *graph.EpochSet
		for ui := w; ui < len(cs.units); ui += n {
			if block == nil {
				block = graph.NewEpochSet(view.NumNodes())
			}
			fillBlock(block, view, cs.pivot(ui), b.candidatesOf(cs, ui))
			ship := make([]int64, frag.N)
			var total int64
			perOwner := make([]int64, frag.N)
			for _, v := range block.Members() {
				bytes := fragment.NodeBytes(view, v)
				perOwner[frag.OwnerOf(v)] += bytes
				total += bytes
			}
			for o := range ship {
				ship[o] = total - perOwner[o]
			}
			p.ship[ui] = ship
		}
	})
	if len(deaths) > 0 {
		errs := make([]error, len(deaths))
		for i, d := range deaths {
			errs[i] = d
		}
		return errors.Join(errs...)
	}
	p.span += cluster.MaxSpan(busy)
	chargeCandidateMessages(func(from, to int, bytes int64) {
		p.ships = append(p.ships, shipRec{from, to, bytes})
		cl.Ship(from, to, bytes)
	}, frag, b, p.chunks)
	return nil
}

// fillBlock resets set to a unit's data block G_z̄ on view: the union of
// the c_i-hop neighborhoods of its pivot candidates cands, with zero
// steady-state allocation, for the halo selection of internal/dist and
// disVal's ship costs and partial-match estimate; unit enumeration needs no
// block (see detect).
func fillBlock(set *graph.EpochSet, view *graph.Snapshot, pv *workload.Pivot, cands [][]graph.NodeID) {
	set.Reset()
	for i, vs := range cands {
		for _, v := range vs {
			view.BlockInto(set, v, pv.Radii[i])
		}
	}
}

// chargeCandidateMessages accounts the M_i messages of disPar: every
// fragment reports its local pivot candidates (candidate id, block-part
// size, border nodes) to the coordinator as one batched message per
// fragment, sized per candidate descriptor.
func chargeCandidateMessages(ship func(from, to int, bytes int64), frag *fragment.Fragmentation, b *Bundle, cs *chunkSet) {
	type key struct {
		node  graph.NodeID
		owner int
	}
	seen := make(map[key]struct{})
	perOwner := make([]int64, frag.N)
	for ui := range cs.units {
		for _, cands := range b.candidatesOf(cs, ui) {
			for _, c := range cands {
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

// partialMatchBytes estimates the cost of the partial-match shipping
// strategy: the graph-simulation relation of the group pattern restricted
// to the unit's block over-approximates the partial matches that would be
// exchanged; each pair costs a fixed descriptor. Only pairs on nodes not
// owned by worker w need shipping. Both estimates read the group
// pattern's lowering that b bound to grp, so no unit lowers it again.
//
// The simulation fixpoint is only worth computing when it could win: a
// label-compatibility count (an upper bound on the simulation size, O(1)
// per block node) prefilters units whose partial matches could not beat
// prefetching, keeping the strategy selector itself cheap — the paper's
// dlocalVio likewise estimates before exchanging. block is worker w's
// pooled set; the unit's block is filled into it.
func partialMatchBytes(b *Bundle, frag *fragment.Fragmentation, grp *ruleGroup, cands [][]graph.NodeID, block *graph.EpochSet, w int, prefetchBytes int64) int64 {
	view := b.topo
	fillBlock(block, view, grp.pivot, cands)
	cq := grp.cq
	var upper int64
	for _, v := range block.Members() {
		if frag.OwnerOf(v) == w {
			continue
		}
		l := view.Label(v)
		for _, sym := range cq.NodeSyms {
			if pattern.LabelMatchesSym(sym, l) {
				upper += partialDescriptorBytes
			}
		}
	}
	if upper >= prefetchBytes {
		return upper // cannot win; skip the fixpoint
	}
	sim := match.Simulate(view, cq, block)
	var pairs int64
	for _, s := range sim {
		for _, v := range s {
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
func owningPeer(frag *fragment.Fragmentation, cands [][]graph.NodeID, w int) int {
	for _, vs := range cands {
		for _, c := range vs {
			if o := frag.OwnerOf(c); o != w {
				return o
			}
		}
	}
	if w == 0 && frag.N > 1 {
		return 1
	}
	return 0
}
