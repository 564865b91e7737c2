package validate

import (
	"slices"
	"sync/atomic"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/workload"
)

// This file is the planning layer of a parallel round — the bPar / disPar
// prefix. A plan is a list of chunks: per rule group, ranges of each pivot
// component's class (Unit), cut from class sizes alone, weighted by member
// count and balanced by LPT. Planning reads no member: the star test that
// keeps a class member as a pivot candidate runs at the head of each
// chunk, on the slot that runs it and over that slot's own view
// (UnitRunner), and its survivors are what the matcher enumerates. Skewed
// pivots keep the paper's replicate-and-split: a member of the topology's
// heavy-node list (graph.Snapshot.Heavy) whose degree exceeds θ gets a
// chunk of its own, striped.
//
// The Bundle memoizes plans per option variant, so:
//
//   - warm rounds (same bundle, same options) plan nothing: the chunks, the
//     assignment, the planning span and its shipments come from
//     the cache, and each chunk's star-test survivors, stored on the plan
//     by the chunk's first run, are reused (EstimationStats is the probe);
//   - Session.Apply builds a new bundle, which starts with no plan, so no
//     survivor list outlives the view it was computed on.
//
// disVal is the one engine that traverses blocks while planning: its
// bi-criteria assignment needs each chunk's ship costs, which come from
// the blocks of the chunk's survivors — computed once, into the same memo
// the detection phase reads.

// Chunk granularity: a group's classes are cut into at most chunksPerSlot
// chunks per slot, none below minChunkMembers members unless the class is
// smaller. Variables only so that tests can vary the granularity
// (SetChunkGranularity).
var (
	chunksPerSlot   = 8
	minChunkMembers = 256
)

// SetChunkGranularity is a seam for tests: bundles planned after the call
// cut their classes into at most perSlot chunks per slot and group, none
// below minMembers members, until the returned function restores the
// constants. Suites whose fault plans or dispatch windows need long slot
// queues on small graphs use it; it must not run beside a plan.
func SetChunkGranularity(perSlot, minMembers int) (restore func()) {
	oldPer, oldMin := chunksPerSlot, minChunkMembers
	chunksPerSlot, minChunkMembers = perSlot, minMembers
	return func() { chunksPerSlot, minChunkMembers = oldPer, oldMin }
}

// shipRec is one recorded planning-phase shipment, replayed into the
// per-call cluster on warm rounds so the shipment counters stay identical.
type shipRec struct {
	from, to int
	bytes    int64
}

// chunkKey identifies one chunk layout: the grouping variant plus the
// option fields the cut depends on.
type chunkKey struct {
	gk        groupKey
	n         int
	threshold int
}

// chunkSet is one memoized chunk layout: the rule groups it was cut from,
// its units with their weights, and its survivor memo: cands[i] is unit
// i's candidates on the bundle's topology, stored by the first run of the
// unit (or by disVal's planning) and shared by every plan over the layout.
type chunkSet struct {
	groups  []*ruleGroup
	units   []Unit
	weights []int // the balancers' estimate of each unit's work
	cands   []atomic.Pointer[[][]graph.NodeID]
	split   int
	span    time.Duration // the cut's wall time
}

// pivot returns unit ui's pivot: its group's, lowered by bind.
func (cs *chunkSet) pivot(ui int) *workload.Pivot { return cs.groups[cs.units[ui].Group].pivot }

// planKey identifies one memoized detection plan: the chunk layout plus
// the assignment objective. seed is folded in only for randomized
// assignment — deterministic plans are shared across seeds.
type planKey struct {
	ck     chunkKey
	frag   *fragment.Fragmentation // nil for the replicated engine
	random bool
	seed   int64
}

// planEntry is one memoized plan: the layout's units with their balanced
// assignment, disVal's ship costs (ship[i][w]: the bytes unit i needs
// shipped if worker w runs it; nil for the replicated engine), the derived
// accounting the engines report, and the planning phase's span and
// shipments. Shared read-only across rounds. The ship costs live here, not
// on the layout, which plans of other fragmentations share.
type planEntry struct {
	chunks      *chunkSet
	ship        [][]int64
	totalWeight int64
	makespan    int64
	assign      workload.Assignment
	span        time.Duration
	ships       []shipRec
}

// estState is the Bundle's planning cache, guarded by Bundle.mu (measured
// is atomic: slots count their star tests without the lock).
type estState struct {
	chunks map[chunkKey]*chunkSet
	plans  map[planKey]*planEntry

	builds   int          // plans built (cache misses)
	reuses   int          // Detect rounds served by a cached plan
	measured atomic.Int64 // chunk star tests run on the bundle's topology
}

// EstStats are the planning-cache probe counters, cumulative across the
// bundles a Prepared re-derives (they survive Session.Apply rebuilds the
// way Graph.SnapshotBuilds survives Freeze cache hits). Builds counts plans
// built, Reused rounds served from a cached plan, and Measured the chunk
// star tests run: a warm round moves only Reused.
type EstStats struct {
	Builds   int
	Reused   int
	Measured int
}

// EstimationStats returns the bundle's planning-cache counters.
func (b *Bundle) EstimationStats() EstStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return EstStats{Builds: b.est.builds, Reused: b.est.reuses, Measured: int(b.est.measured.Load())}
}

func replayShips(cl *cluster.Cluster, ships []shipRec) {
	for _, s := range ships {
		cl.Ship(s.from, s.to, s.bytes)
	}
}

// publish stores v under key in one of the bundle's bounded variant caches
// and returns the entry later rounds share: v, or the one a concurrent cold
// round published first. Past the cap v stays uncached. Call under Bundle.mu.
func publish[K comparable, V any](cache *map[K]*V, key K, limit int, v *V) *V {
	if prev, dup := (*cache)[key]; dup {
		return prev
	}
	if len(*cache) < limit {
		if *cache == nil {
			*cache = make(map[K]*V, 2)
		}
		(*cache)[key] = v
	}
	return v
}

// maxPlanEntries bounds the per-bundle variant caches: real sweeps use a
// handful of (variant, n) combinations, so past the cap a round simply
// runs uncached (still correct) instead of letting a caller iterating
// arbitrary options — or handing a fresh Options.Frag to every Detect —
// grow the bundle without bound.
const maxPlanEntries = 64

// planFor returns the plan for the options' variant, memoized per variant.
// A warm round replays the planning phase's shipments and nothing else.
// Cutting is serial and reads class sizes and the heavy-node list only;
// disVal adds one superstep in which every worker runs its share of the
// star tests and traverses the survivors' blocks for the ship costs.
//
// Planning is not unit-granular, so a panic in disVal's superstep
// (recovered by the cluster into a *WorkerError) is not retried: the error
// propagates and the plan is not cached.
func (b *Bundle) planFor(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options, frag *fragment.Fragmentation) (*planEntry, error) {
	key := planKey{ck: chunkKey{gk: gk, n: opt.N, threshold: opt.SplitThreshold}, frag: frag, random: opt.RandomAssign}
	if opt.RandomAssign {
		key.seed = opt.Seed
	}
	b.mu.Lock()
	if p, ok := b.est.plans[key]; ok {
		b.est.reuses++
		b.mu.Unlock()
		replayShips(cl, p.ships)
		cl.EndRound()
		return p, nil
	}
	b.mu.Unlock()

	cs := b.chunksFor(key.ck, groups, opt)
	p := &planEntry{chunks: cs, span: cs.span}
	if frag != nil {
		if err := b.attachShipCosts(cl, p, frag); err != nil {
			return nil, err
		}
	}
	cl.EndRound()

	start := time.Now()
	weights := cs.weights
	for _, w := range weights {
		p.totalWeight += int64(w)
	}
	switch {
	case opt.RandomAssign:
		p.assign = workload.BalanceRandom(weights, opt.N, opt.Seed)
	case frag != nil:
		cc := func(unit, worker int) int64 { return p.ship[unit][worker] }
		p.assign = workload.BalanceBiCriteria(weights, opt.N, cc, commCostWeight)
	default:
		p.assign = workload.BalanceLPT(weights, opt.N)
	}
	p.makespan = p.assign.Makespan(weights)
	p.span += time.Since(start)

	b.mu.Lock()
	defer b.mu.Unlock()
	b.est.builds++
	return publish(&b.est.plans, key, maxPlanEntries, p), nil
}

// chunksFor returns the chunk layout of key, cut on first use.
func (b *Bundle) chunksFor(key chunkKey, groups []*ruleGroup, opt Options) *chunkSet {
	b.mu.Lock()
	if cs, ok := b.est.chunks[key]; ok {
		b.mu.Unlock()
		return cs
	}
	b.mu.Unlock()
	start := time.Now()
	cs := &chunkSet{groups: groups}
	cs.units, cs.weights, cs.split = cutChunks(b.topo, groups, opt)
	cs.cands = make([]atomic.Pointer[[][]graph.NodeID], len(cs.units))
	cs.span = time.Since(start)
	b.mu.Lock()
	defer b.mu.Unlock()
	return publish(&b.est.chunks, key, maxPlanEntries, cs)
}

// candidatesOf returns unit ui's pivot candidates on the bundle's topology:
// the survivors its first run stored, or the star test run now and stored.
func (b *Bundle) candidatesOf(cs *chunkSet, ui int) [][]graph.NodeID {
	if c := cs.cands[ui].Load(); c != nil {
		return *c
	}
	c := unitCandidates(b.topo, cs.pivot(ui), cs.units[ui].Ranges)
	if !cs.cands[ui].CompareAndSwap(nil, &c) {
		return *cs.cands[ui].Load() // a racing run stored the same list first
	}
	b.est.measured.Add(1)
	return c
}

// unitCandidates runs a unit's star test on view: per component, the
// members of its range rs that the pivot pv (its group's, lowered by bind)
// keeps. The two components of a symmetric group share a star, so a
// diagonal unit tests its range once.
func unitCandidates(view *graph.Snapshot, pv *workload.Pivot, rs []Range) [][]graph.NodeID {
	out := make([][]graph.NodeID, len(rs))
	for i, r := range rs {
		if i == 1 && pv.Symmetric() && r == rs[0] {
			out[1] = out[0]
			continue
		}
		out[i] = pv.Candidates(view, i, r)
	}
	return out
}

// heavyPivot is a heavy member of an arity-1 group's class: its class
// position, the stripes it is cut into and its degree.
type heavyPivot struct {
	pos, stripes, degree int
}

// cutChunks lays out the chunk plan of groups on view, in group order:
//
//   - one component: the class cut into even ranges, at most
//     chunksPerSlot·N of them and none below minChunkMembers members, each
//     heavy member (degree > θ, from the heavy-node list) cut out into a
//     chunk of its own, striped ⌈degree/θ⌉ ways up to the group's chunk
//     bound;
//   - two components: the classes cut into at most √(chunksPerSlot·N)
//     ranges each and every range pair a chunk — for a symmetric group
//     with deduplication only the pairs i ≤ j (Example 10);
//   - more: one chunk over the full classes.
//
// A range chunk weighs its members times the mean degree, a stripe its
// share of its pivot's degree. It returns the units, their weights and how
// many of them are stripes.
func cutChunks(view *graph.Snapshot, groups []*ruleGroup, opt Options) (units []Unit, weights []int, split int) {
	theta := splitThreshold(opt, view)
	var heavy []graph.NodeID
	if theta > 0 {
		heavy = view.Heavy()
	}
	meanDeg := meanDegree(view)
	limit := chunksPerSlot * opt.N
	add := func(gi int, load int, rs ...Range) *Unit {
		units = append(units, Unit{ID: len(units), Group: gi, Ranges: rs})
		weights = append(weights, max(1, load))
		return &units[len(units)-1]
	}
	for gi, grp := range groups {
		pv := grp.pivot
		switch k := pv.Arity(); k {
		case 0:
		case 1:
			var hs []heavyPivot
			if theta > 0 && grp.stripe >= 0 {
				hs = heavyIn(view, pv, heavy, theta, limit)
			}
			for _, r := range evenRanges(pv.ClassLen(view, 0), limit) {
				for r.Len() > 0 {
					cut := r.Hi
					if len(hs) > 0 && hs[0].pos < r.Hi {
						cut = hs[0].pos
					}
					if cut > r.Lo {
						add(gi, (cut-r.Lo)*meanDeg, Range{Lo: r.Lo, Hi: cut})
					}
					r.Lo = cut
					if r.Len() == 0 {
						break
					}
					h := hs[0]
					hs = hs[1:]
					for rem := 0; rem < h.stripes; rem++ {
						u := add(gi, h.degree/h.stripes, Range{Lo: h.pos, Hi: h.pos + 1})
						u.StripeMod, u.StripeRem = h.stripes, rem
					}
					split += h.stripes
					r.Lo++
				}
			}
		case 2:
			per := 1
			for (per+1)*(per+1) <= limit {
				per++
			}
			symmetric := !opt.NoOptimize && pv.Symmetric()
			r0 := evenRanges(pv.ClassLen(view, 0), per)
			r1 := evenRanges(pv.ClassLen(view, 1), per)
			for i, a := range r0 {
				for j, c := range r1 {
					if symmetric && j < i {
						continue
					}
					add(gi, a.Len()*c.Len()*meanDeg, a, c)
				}
			}
		default:
			rs := make([]Range, k)
			load := meanDeg
			for i := range rs {
				rs[i] = Range{Hi: pv.ClassLen(view, i)}
				load = min(load*max(1, rs[i].Hi), 1<<30)
			}
			if !slices.ContainsFunc(rs, func(r Range) bool { return r.Hi == 0 }) {
				add(gi, load, rs...)
			}
		}
	}
	return units, weights, split
}

// evenRanges cuts [0, n) into at most limit ranges of near-equal size,
// none below minChunkMembers unless n itself is; none for an empty class.
func evenRanges(n, limit int) []workload.Range {
	if n == 0 {
		return nil
	}
	parts := max(1, min(limit, n/minChunkMembers))
	out := make([]workload.Range, parts)
	for i := range out {
		out[i] = workload.Range{Lo: i * n / parts, Hi: (i + 1) * n / parts}
	}
	return out
}

// heavyIn returns the members of pv's class (one component) in the
// heavy-node list whose degree exceeds theta, by class position, with
// their stripe counts: ⌈degree/θ⌉, at most limit.
func heavyIn(view *graph.Snapshot, pv *workload.Pivot, heavy []graph.NodeID, theta, limit int) []heavyPivot {
	class := pv.Class(view, 0)
	var out []heavyPivot
	for _, h := range heavy {
		pos := int(h)
		if class != nil {
			var found bool
			if pos, found = slices.BinarySearch(class, h); !found {
				continue
			}
		}
		if deg := view.OutDegree(h) + view.InDegree(h); deg > theta {
			out = append(out, heavyPivot{pos: pos, stripes: min((deg+theta-1)/theta, max(limit, 2)), degree: deg})
		}
	}
	return out
}

// splitThreshold resolves θ, the degree past which a heavy pivot is cut
// into stripes: 0 when splitting is off, by default eight times the mean
// degree and at least 32.
func splitThreshold(opt Options, view *graph.Snapshot) int {
	switch {
	case opt.NoOptimize || opt.SplitThreshold < 0:
		return 0
	case opt.SplitThreshold > 0:
		return opt.SplitThreshold
	}
	return max(32, 8*meanDegree(view))
}

// meanDegree is the mean in + out degree of view, rounded up.
func meanDegree(view *graph.Snapshot) int {
	return max(1, (2*view.NumEdges()+view.NumNodes()-1)/max(1, view.NumNodes()))
}
