package validate

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/stats"
	"gfd/internal/workload"
)

// This file is the cached workload-estimation layer: the bPar / disPar
// prefix of a parallel round — candidate lists filtered from their label
// classes and value-sorted into equi-depth ranges, one c-hop traversal per
// pivot candidate, unit assembly, split, balanced assignment. A cold pass
// runs on flat arrays (one filter pass and sort per list, block sizes in
// dense per-radius tables, units in one pre-counted slice over one
// candidate arena); the Bundle memoizes its results per option variant and
// the block sizes across variants, so:
//
//   - warm rounds (same bundle, same options) perform zero estimation
//     passes: the plan, the modeled estimation span, and the phase's comm
//     charges are replayed from the cache (EstimationStats is the probe);
//   - rounds after Session.Apply re-measure only the touched blocks: the
//     superseding bundle inherits the size tables minus what the overlay's
//     touch log made stale (a (v, r) entry only when a touched node lies
//     within r hops of v) — warm estimation is update-proportional.
//
// EstimateSpan charges every filter pass, sort, traversal and assembly to
// the worker that ran it; traversal costs are recorded with the sizes, so
// the modeled n-worker spans the figures plot are unchanged by caching —
// only EstimateWall collapses on warm rounds.

// sizeTable holds the measured block sizes |G_z̄[v]| of one radius, dense
// by NodeID; a radius no rule asks for has no table. Entry v packs the size
// (low half; 0 = not measured — a block holds at least its pivot) with the
// traversal's cost in ns (high half, saturating), which replays faithful
// modeled spans without re-traversing. Entries are atomic, so cold rounds
// racing on one bundle and a successor copying the table need no lock.
type sizeTable []atomic.Uint64

func packSize(size int, cost time.Duration) uint64 {
	return uint64(min(cost, math.MaxUint32))<<32 | uint64(uint32(size))
}

func (t sizeTable) size(v graph.NodeID) int { return int(uint32(t[v].Load())) }

func (t sizeTable) cost(v graph.NodeID) time.Duration { return time.Duration(t[v].Load() >> 32) }

// grown returns a copy of t covering at least n nodes.
func (t sizeTable) grown(n int) sizeTable {
	out := make(sizeTable, max(n, len(t)))
	for v := range t {
		out[v].Store(t[v].Load())
	}
	return out
}

// shipRec is one recorded estimation-phase shipment, replayed into the
// per-call cluster on warm rounds so comm accounting stays identical.
type shipRec struct {
	from, to int
	bytes    int64
}

// estKey identifies one cached estimation variant: the grouping variant
// plus the option fields the assembled unit set depends on.
type estKey struct {
	gk         groupKey
	n          int
	histogramM int
}

// estEntry is one memoized estimation phase: the pre-split unit set in
// canonical order (read-only; splitting and assignment copy), the modeled
// span, and the phase's comm charges.
type estEntry struct {
	units []workUnit
	span  time.Duration
	ships []shipRec
}

// fragEstKey adds the fragmentation identity: ship costs and candidate
// messages are per-partition artifacts.
type fragEstKey struct {
	ek   estKey
	frag *fragment.Fragmentation
}

// fragEstEntry is the fragmented-engine layer over a base estimation:
// units with per-worker ship costs attached, plus the candidate-report
// charges of disPar's first exchange.
type fragEstEntry struct {
	units     []workUnit
	span      time.Duration
	candShips []shipRec
	estShips  []shipRec
}

// planKey identifies one memoized detection plan: the estimation variant
// plus every option field the split and the balanced assignment depend
// on. seed is folded in only for randomized assignment — deterministic
// plans are shared across seeds.
type planKey struct {
	ek        estKey
	frag      *fragment.Fragmentation // nil for the replicated engine
	threshold int
	noOpt     bool
	random    bool
	seed      int64
}

// planEntry is one memoized post-split unit set with its balanced
// assignment and the derived accounting the engines report. Units and
// assignment are shared read-only across rounds: the detection runtime
// copies the assignment's top-level slice and reads unit descriptors by
// value, so no round mutates the plan.
type planEntry struct {
	units       []workUnit
	split       int
	totalWeight int64
	makespan    int64
	assign      workload.Assignment
}

// estState is the Bundle's estimation cache, guarded by Bundle.mu. sizes is
// indexed by radius; the slice is replaced, never written in place, so a
// round reads the header it took under the lock while workers fill table
// entries without it.
type estState struct {
	sizes       []sizeTable
	entries     map[estKey]*estEntry
	fragEntries map[fragEstKey]*fragEstEntry
	plans       map[planKey]*planEntry

	builds   int // full estimation passes (unit-set cache misses)
	reuses   int // Detect rounds served without an estimation pass
	measured int // block-size traversals actually run
}

// EstStats are the estimation-cache probe counters, cumulative across the
// bundles a Prepared re-derives (they survive Session.Apply rebuilds the
// way Graph.SnapshotBuilds survives Freeze cache hits). The regression
// tests assert warm rounds leave Builds and Measured unchanged, and that
// an Apply delta re-measures exactly the touched blocks.
type EstStats struct {
	Builds   int
	Reused   int
	Measured int
}

// EstimationStats returns the bundle's estimation-cache counters.
func (b *Bundle) EstimationStats() EstStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return EstStats{Builds: b.est.builds, Reused: b.est.reuses, Measured: b.est.measured}
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

// baseEstimate returns the pre-split unit set (shared and read-only), the
// modeled estimation span and the phase's comm charges for the given
// grouping variant, serving warm rounds entirely from the cache (charges
// replayed, zero traversals).
//
// Estimation is not unit-granular, so a panic here (recovered by the
// cluster into a *WorkerError) is not retried: the error propagates and
// the failed pass is not cached.
func (b *Bundle) baseEstimate(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options) (*estEntry, error) {
	key := estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM}
	b.mu.Lock()
	if e, ok := b.est.entries[key]; ok {
		b.est.reuses++
		b.mu.Unlock()
		replayShips(cl, e.ships)
		cl.EndRound()
		return e, nil
	}
	b.mu.Unlock()

	var ships []shipRec
	ship := func(from, to int, bytes int64) {
		ships = append(ships, shipRec{from, to, bytes})
		cl.Ship(from, to, bytes)
	}
	units, span, err := b.assembleUnits(cl, groups, opt, ship)
	if err != nil {
		return nil, err
	}
	cl.EndRound()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.est.builds++
	return publish(&b.est.entries, key, maxEstEntries, &estEntry{units: units, span: span, ships: ships}), nil
}

// maxEstEntries / maxFragEstEntries bound the per-bundle variant caches:
// real sweeps use a handful of (variant, n) combinations, so past the cap
// a round simply runs uncached (still correct) instead of letting a
// caller iterating arbitrary options — or handing a fresh Options.Frag to
// every Detect — grow the bundle without bound.
const (
	maxEstEntries     = 64
	maxFragEstEntries = 16
	maxPlanEntries    = 64
)

// planFor returns the post-split unit set and balanced assignment for the
// options' variant, memoized per variant. The split copy, the weights
// scan, and the LPT / bi-criteria balance are the per-call serial prefix
// between (cached) estimation and the workers' first emission; replaying
// them from the cache bounds the pull pipeline's time-to-first-violation
// by scheduler startup rather than re-planning — latency scales with the
// answer, not the unit count. Comm charges (estimation replay and, in the
// callers, unit-descriptor shipments) still flow through cl on every
// round, so the modeled figures are unchanged by caching.
func (b *Bundle) planFor(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options, frag *fragment.Fragmentation) (*planEntry, time.Duration, error) {
	units, span, err := b.estimate(cl, groups, gk, opt, frag)
	if err != nil {
		return nil, 0, err
	}
	key := planKey{
		ek:        estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM},
		frag:      frag,
		threshold: opt.SplitThreshold,
		noOpt:     opt.NoOptimize,
		random:    opt.RandomAssign,
	}
	if opt.RandomAssign {
		key.seed = opt.Seed
	}
	b.mu.Lock()
	if p, ok := b.est.plans[key]; ok {
		b.mu.Unlock()
		return p, span, nil
	}
	b.mu.Unlock()

	theta := splitThreshold(opt, units)
	p := &planEntry{}
	p.units, p.split = applySplit(units, groups, theta)
	weights := make([]int, len(p.units))
	for i := range p.units {
		weights[i] = p.units[i].Weight()
		p.totalWeight += int64(weights[i])
	}
	switch {
	case opt.RandomAssign:
		p.assign = workload.BalanceRandom(weights, opt.N, opt.Seed)
	case frag != nil:
		cc := func(unit, worker int) int64 { return p.units[unit].shipBytes[worker] }
		p.assign = workload.BalanceBiCriteria(weights, opt.N, cc, commCostWeight)
	default:
		p.assign = workload.BalanceLPT(weights, opt.N)
	}
	p.makespan = p.assign.Makespan(weights)

	b.mu.Lock()
	defer b.mu.Unlock()
	return publish(&b.est.plans, key, maxPlanEntries, p), span, nil
}

// estimate is the base estimation for the replicated engine (frag ==
// nil) and, over it, the fragmented engine's: disPar's candidate reports
// and per-worker ship costs attached to a private copy of the units — all
// memoized per (variant, partition).
func (b *Bundle) estimate(cl *cluster.Cluster, groups []*ruleGroup, gk groupKey, opt Options, frag *fragment.Fragmentation) ([]workUnit, time.Duration, error) {
	if frag == nil {
		e, err := b.baseEstimate(cl, groups, gk, opt)
		if err != nil {
			return nil, 0, err
		}
		return e.units, e.span, nil
	}
	key := fragEstKey{ek: estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM}, frag: frag}
	b.mu.Lock()
	if e, ok := b.est.fragEntries[key]; ok {
		b.est.reuses++
		b.mu.Unlock()
		replayShips(cl, e.candShips)
		cl.EndRound()
		replayShips(cl, e.estShips)
		cl.EndRound()
		return e.units, e.span, nil
	}
	b.mu.Unlock()

	var candShips []shipRec
	chargeCandidateMessages(b.topo, func(from, to int, bytes int64) {
		candShips = append(candShips, shipRec{from, to, bytes})
		cl.Ship(from, to, bytes)
	}, frag, groups)
	cl.EndRound()
	base, err := b.baseEstimate(cl, groups, gk, opt)
	if err != nil {
		return nil, 0, err
	}
	units := append([]workUnit(nil), base.units...)
	block := graph.NewEpochSet(b.topo.NumNodes())
	for i := range units {
		attachShipCosts(b.topo, frag, block, &units[i])
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	e := publish(&b.est.fragEntries, key, maxFragEstEntries,
		&fragEstEntry{units: units, span: base.span, candShips: candShips, estShips: base.ships})
	return e.units, e.span, nil
}

// candList is one pivot candidate list: the members of a group component's
// pivot class that workload.Pivot.CandidatesIn keeps, value-sorted once per
// estimation pass. A list depends on its pivot's star, so there is one per
// group component; the two components of a symmetric group, whose pivots
// correspond, share one.
type candList struct {
	group, comp int
	class       int // the size of the class the list is filtered from
	sorted      []graph.NodeID
	ranges      []stats.Range
}

// estTask is one unit-assembly task: a combination of equi-depth ranges,
// one per pivot component of the group. Groups of more than two components
// are rare and get a single task over their full candidate lists.
type estTask struct {
	group int
	r     [2]stats.Range
	// dedup keeps only the ordered pairs of a symmetric pattern's diagonal
	// range pair; off-diagonal pairs are disjoint and need no pruning.
	dedup bool
}

// lists resolves the task's per-component candidate lists into dst.
func (t estTask) lists(dst [][]graph.NodeID, listOf []int, lists []candList) [][]graph.NodeID {
	dst = dst[:0]
	for i, li := range listOf {
		list := lists[li].sorted
		if len(listOf) <= 2 {
			list = list[t.r[i].Lo:t.r[i].Hi]
		}
		dst = append(dst, list)
	}
	return dst
}

// candLists lays out the candidate lists of the groups' pivot components,
// still unfilled, and maps every group component to its list.
func candLists(topo graph.Topology, groups []*ruleGroup) (lists []candList, listOf [][]int) {
	listOf = make([][]int, len(groups)) // group -> component -> list
	for gi, grp := range groups {
		listOf[gi] = make([]int, grp.pivot.Arity())
		for i := range listOf[gi] {
			if i == 1 && grp.pivot.Symmetric() {
				listOf[gi][1] = listOf[gi][0]
				continue
			}
			class := topo.NumNodes()
			if l := grp.pivot.ClassIn(topo, i); l != graph.WildcardSym {
				class = topo.ClassSize(l)
			}
			listOf[gi][i] = len(lists)
			lists = append(lists, candList{group: gi, comp: i, class: class})
		}
	}
	return lists, listOf
}

// assembleUnits runs the parallel workload-estimation phase shared by
// repVal and disVal, every step a superstep on the cluster's workers: the
// candidate lists are filtered from their classes and sorted into
// equi-depth ranges, the missing c-hop block sizes are traversed, and the
// range combinations — distributed round-robin — are assembled into unit
// descriptors, which each worker reports to the coordinator via ship.
// Units land, in worker-major task order, in one exactly sized slice over
// one arena of candidate vectors. The caller owns the communication round.
func (b *Bundle) assembleUnits(cl *cluster.Cluster, groups []*ruleGroup, opt Options, ship func(from, to int, bytes int64)) ([]workUnit, time.Duration, error) {
	topo, n := b.topo, opt.N
	lists, listOf := candLists(topo, groups)
	classSizes := make([]int, len(lists))
	for li, c := range lists {
		classSizes[li] = c.class
	}
	sortPlan := workload.BalanceLPT(classSizes, n)
	busy, err := cl.RunMeasured(func(w int) {
		for _, li := range sortPlan[w] {
			c := &lists[li]
			cands := groups[c.group].pivot.CandidatesIn(topo, c.comp)
			c.sorted, c.ranges = stats.EquiDepthByValue(topo, cands, "val", opt.HistogramM)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	span := cluster.MaxSpan(busy)

	var tasks []estTask
	for gi, grp := range groups {
		switch k := grp.pivot.Arity(); k {
		case 1:
			for _, r := range lists[listOf[gi][0]].ranges {
				tasks = append(tasks, estTask{group: gi, r: [2]stats.Range{r}})
			}
		case 2:
			// Cross-product of per-component ranges; for symmetric deduped
			// patterns only ordered range pairs are kept (Example 10).
			symmetric := !opt.NoOptimize && grp.pivot.Symmetric()
			for i, r1 := range lists[listOf[gi][0]].ranges {
				for j, r2 := range lists[listOf[gi][1]].ranges {
					if symmetric && j < i {
						continue
					}
					tasks = append(tasks, estTask{group: gi, r: [2]stats.Range{r1, r2}, dedup: symmetric && r1 == r2})
				}
			}
		default:
			tasks = append(tasks, estTask{group: gi})
		}
	}
	tables, sizeSpan, err := b.measureSizes(cl, sizeRequests(groups, lists, listOf), n)
	if err != nil {
		return nil, 0, err
	}
	span += sizeSpan

	// Count each task's units, lay the tasks out in the order the workers
	// report them, then fill units and candidate vectors in place.
	counts := make([]int, len(tasks))
	busy, err = cl.RunMeasured(func(w int) {
		var vecs [][]graph.NodeID
		for ti := w; ti < len(tasks); ti += n {
			t := tasks[ti]
			vecs = t.lists(vecs, listOf[t.group], lists)
			counts[ti] = workload.CountVectors(vecs, t.dedup)
		}
	})
	if err != nil {
		return nil, 0, err
	}
	span += cluster.MaxSpan(busy)
	unitOff, arenaOff, reported := make([]int, len(tasks)), make([]int, len(tasks)), make([]int, n)
	var numUnits, numIDs int
	for w := 0; w < n; w++ {
		for ti := w; ti < len(tasks); ti += n {
			unitOff[ti], arenaOff[ti] = numUnits, numIDs
			numUnits += counts[ti]
			numIDs += counts[ti] * len(listOf[tasks[ti].group])
			reported[w] += counts[ti]
		}
	}
	units := make([]workUnit, numUnits)
	arena := make([]graph.NodeID, numIDs)
	busy, err = cl.RunMeasured(func(w int) {
		var vecs [][]graph.NodeID
		for ti := w; ti < len(tasks); ti += n {
			t := tasks[ti]
			pv := groups[t.group].pivot
			k := pv.Arity()
			vecs = t.lists(vecs, listOf[t.group], lists)
			dst := units[unitOff[ti] : unitOff[ti]+counts[ti]]
			ids := arena[arenaOff[ti] : arenaOff[ti]+counts[ti]*k]
			j := 0
			workload.EachVector(vecs, t.dedup, func(vec []graph.NodeID) bool {
				total := 0
				for i, v := range vec {
					total += tables[pv.Radii[i]].size(v)
				}
				cands := ids[j*k : (j+1)*k : (j+1)*k]
				copy(cands, vec)
				dst[j] = workUnit{Unit: workload.Unit{Pivot: pv, Candidates: cands, BlockSize: total}, group: t.group}
				j++
				return true
			})
		}
	})
	if err != nil {
		return nil, 0, err
	}
	for w, mine := range reported {
		// Report ⟨v̄_z, |G_z̄|⟩ descriptors to the coordinator (one batched
		// message per worker).
		ship(w, cluster.Coordinator, int64(mine)*unitDescriptorBytes)
	}
	return units, span + cluster.MaxSpan(busy), nil
}

// measureSizes resolves |G_z̄[z]| for every (candidate, radius) pair in
// need and returns the per-radius tables holding them: missing entries are
// traversed in parallel (each request belongs to exactly one worker) and
// stored with their traversal cost. The modeled span is reconstructed from
// the per-entry costs over the same round-robin schedule, so it is faithful
// to a from-scratch n-worker phase whether the entries were cached or
// traversed this round.
func (b *Bundle) measureSizes(cl *cluster.Cluster, need [][]graph.NodeID, n int) ([]sizeTable, time.Duration, error) {
	tables := b.sizeTables(need)
	// eachRequest visits the requests numbered first, first+step, … in the
	// fixed order every pass over the same lists numbers them.
	eachRequest := func(first, step int, fn func(t sizeTable, r int, v graph.NodeID)) {
		next := first
		for r, list := range need {
			for ; next < len(list); next += step {
				fn(tables[r], r, list[next])
			}
			next -= len(list)
		}
	}
	_, err := cl.RunMeasured(func(w int) {
		var mine []*atomic.Uint64 // the entries this worker measured
		var weight int64
		start := time.Now()
		eachRequest(w, n, func(t sizeTable, r int, v graph.NodeID) {
			if t.size(v) == 0 {
				sz := b.topo.NeighborhoodSize(v, r)
				t[v].Store(packSize(sz, 0))
				weight += int64(sz) + 1
				mine = append(mine, &t[v])
			}
		})
		// Attribute the worker's busy time to its traversals in proportion
		// to block size (traversal cost is linear in it): per-traversal
		// clock reads would tax the cold path.
		total := int64(time.Since(start))
		for _, e := range mine {
			sz := int64(uint32(e.Load()))
			e.Store(packSize(int(sz), time.Duration(total*(sz+1)/weight)))
		}
		b.mu.Lock()
		b.est.measured += len(mine)
		b.mu.Unlock()
	})
	if err != nil {
		// A measurement worker died, so this estimation pass cannot finish.
		// What the survivors stored is correct, counted, and stays.
		return nil, 0, err
	}
	busy := make([]time.Duration, n)
	for w := range busy {
		eachRequest(w, n, func(t sizeTable, _ int, v graph.NodeID) { busy[w] += t.cost(v) })
	}
	return tables, cluster.MaxSpan(busy), nil
}

// sizeRequests lists, per radius, the nodes whose blocks of that radius
// some group needs: the sorted, deduplicated union of the candidate lists
// of the components at that radius, so that no block is measured twice.
func sizeRequests(groups []*ruleGroup, lists []candList, listOf [][]int) [][]graph.NodeID {
	var need [][]graph.NodeID
	for gi, grp := range groups {
		for i, r := range grp.pivot.Radii {
			for len(need) <= r {
				need = append(need, nil)
			}
			need[r] = append(need[r], lists[listOf[gi][i]].sorted...)
		}
	}
	for r := range need {
		slices.Sort(need[r])
		need[r] = slices.Compact(need[r])
	}
	return need
}

// sizeTables returns the bundle's tables with one present, and covering
// every node of the topology, for each radius need requests.
func (b *Bundle) sizeTables(need [][]graph.NodeID) []sizeTable {
	numNodes := b.topo.NumNodes()
	b.mu.Lock()
	defer b.mu.Unlock()
	tables, shared := b.est.sizes, true
	for r, nodes := range need {
		if len(nodes) == 0 || r < len(tables) && len(tables[r]) >= numNodes {
			continue
		}
		if shared {
			tables = make([]sizeTable, max(len(need), len(tables)))
			copy(tables, b.est.sizes)
			shared = false
		}
		tables[r] = tables[r].grown(numNodes)
	}
	b.est.sizes = tables
	return tables
}

// inheritEstimationLocked carries the estimation cache across a bundle
// rebuild (the caller holds prev.mu; b is not yet shared). Counters always
// carry — they are cumulative probes. The size tables carry only when the
// topology delta between the two bundles is known from an overlay touch
// log, with every entry a touched node could have changed (within radius)
// cleared; unit sets are always re-derived, so new candidates and shifted
// equi-depth ranges are picked up, from cached sizes where nothing touched.
func (b *Bundle) inheritEstimationLocked(prev *Bundle) {
	b.est.builds = prev.est.builds
	b.est.reuses = prev.est.reuses
	b.est.measured = prev.est.measured
	if len(prev.est.sizes) == 0 {
		return
	}
	var touched []graph.NodeID
	switch pt := prev.topo.(type) {
	case *graph.Overlay:
		// Normal warm path: the session's overlay absorbed the deltas (and
		// may have been superseded by a compacted view of the same graph).
		if !pt.Synced() || pt.Graph() != b.g {
			return
		}
		touched = pt.TouchedSince(prev.touchMark)
	case *graph.Snapshot:
		// First Apply after a cold prepare: the new overlay patches the
		// very snapshot prev ran on, so its whole touch log is the delta.
		ov, ok := b.topo.(*graph.Overlay)
		if !ok || ov.Base() != pt || ov.Graph() != b.g {
			return
		}
		touched = ov.TouchedSince(0)
	default:
		return
	}
	if len(touched) == 0 {
		// Attribute-only deltas: every measurement survives, and whatever
		// either bundle measures from here on holds for both.
		b.est.sizes = prev.est.sizes
		return
	}
	maxR := len(prev.est.sizes) - 1
	sizes := make([]sizeTable, len(prev.est.sizes))
	for r, old := range prev.est.sizes {
		if old != nil {
			sizes[r] = old.grown(b.topo.NumNodes())
		}
	}
	for v, d := range distWithin(b.topo, touched, maxR) {
		for r := d; r <= maxR; r++ {
			if sizes[r] != nil {
				sizes[r][v].Store(0)
			}
		}
	}
	b.est.sizes = sizes
}

// distWithin runs a multi-source undirected BFS from the touched nodes up
// to maxR hops and returns each reached node's hop distance to the nearest
// source — the stale region: a cached (v, r) measurement can only have
// changed if dist(v) <= r. Distances are computed on the new topology;
// updates are insert-only, so new edges can only shorten distances, which
// errs on the side of re-measuring.
func distWithin(topo graph.Topology, sources []graph.NodeID, maxR int) map[graph.NodeID]int {
	dist := make(map[graph.NodeID]int, len(sources)*4)
	var frontier []graph.NodeID
	for _, v := range sources {
		if _, ok := dist[v]; !ok {
			dist[v] = 0
			frontier = append(frontier, v)
		}
	}
	for hop := 1; hop <= maxR && len(frontier) > 0; hop++ {
		var next []graph.NodeID
		for _, v := range frontier {
			for _, e := range topo.Out(v) {
				if _, ok := dist[e.To]; !ok {
					dist[e.To] = hop
					next = append(next, e.To)
				}
			}
			for _, e := range topo.In(v) {
				if _, ok := dist[e.To]; !ok {
					dist[e.To] = hop
					next = append(next, e.To)
				}
			}
		}
		frontier = next
	}
	return dist
}
