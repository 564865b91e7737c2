package validate

import (
	"maps"
	"slices"
	"sort"

	"gfd/internal/cluster"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/stats"
	"gfd/internal/workload"
)

// This file serves the external tests of the cold planning path
// (plan_test.go, package validate_test, which may import session, store and
// exp where this package may not): it flattens a memoized plan into plain
// values, and it keeps the map-based estimator the flat one replaced as the
// oracle those values are compared against.

// RandomWorkload and OracleVio serve the incremental detector's property
// test, which lives outside the package because the detector imports it.
var (
	RandomWorkload = randomWorkload
	OracleVio      = oracleVio
)

// PlanUnit is one planned work unit as plain values.
type PlanUnit struct {
	Group      int
	Candidates []graph.NodeID
	BlockSize  int
	StripeMod  int
	StripeRem  int
}

// PlanImage is everything the engines take from planFor, flattened.
type PlanImage struct {
	Units       []PlanUnit
	Split       int
	Assign      workload.Assignment
	TotalWeight int64
	Makespan    int64
}

func imageOf(units []workUnit, split int, assign workload.Assignment, totalWeight, makespan int64) PlanImage {
	img := PlanImage{Units: make([]PlanUnit, len(units)), Split: split, Assign: assign, TotalWeight: totalWeight, Makespan: makespan}
	for i, u := range units {
		img.Units[i] = PlanUnit{u.group, u.Candidates, u.BlockSize, u.stripeMod, u.stripeRem}
	}
	return img
}

// coldPlan runs the replicated engine's estimation and planning prefix:
// planFor, on a fresh cluster.
func (b *Bundle) coldPlan(opt Options) (*planEntry, error) {
	opt = opt.Normalized()
	_, groups, gk := b.ruleGroupsKeyed(opt)
	p, _, err := b.planFor(cluster.New(opt.N, opt.Cost), groups, gk, opt, nil)
	return p, err
}

// ColdPlan plans opt's variant and returns the plan's unit count.
func (b *Bundle) ColdPlan(opt Options) (int, error) {
	p, err := b.coldPlan(opt)
	if err != nil {
		return 0, err
	}
	return len(p.units), nil
}

// Plan is ColdPlan returning the whole plan, flattened.
func (b *Bundle) Plan(opt Options) (PlanImage, error) {
	p, err := b.coldPlan(opt)
	if err != nil {
		return PlanImage{}, err
	}
	return imageOf(p.units, p.split, p.assign, p.totalWeight, p.makespan), nil
}

// PlanShape reports what bounds the cold path's allocations: rule groups,
// pivot candidate lists, and the units they expand to.
func (b *Bundle) PlanShape(opt Options) (groups, lists, units int) {
	opt = opt.Normalized()
	_, gs, _ := b.ruleGroupsKeyed(opt)
	ls, _ := candLists(b.topo, gs)
	units, _ = b.ColdPlan(opt)
	return len(gs), len(ls), units
}

// GroupShape is one rule group's pattern, pivot variables, their candidate
// filters and stripe node.
type GroupShape struct {
	Q       *pattern.Pattern
	Pivots  []int
	Filters []workload.Filter
	Stripe  int
}

// GroupShapes returns the shape of every rule group of opt's variant.
func (b *Bundle) GroupShapes(opt Options) []GroupShape {
	_, gs, _ := b.ruleGroupsKeyed(opt.Normalized())
	out := make([]GroupShape, len(gs))
	for i, grp := range gs {
		out[i] = GroupShape{grp.q, grp.pivot.Vars, grp.pivot.Filters, grp.stripe}
	}
	return out
}

// oracleReq identifies one block-size measurement |G_z̄[v]|.
type oracleReq struct {
	node   graph.NodeID
	radius int
}

// OracleEstimator is the estimator before the flat rewrite, serial: value
// order through the mutable graph's string attributes inside the sort
// comparator, block sizes in a map keyed by (node, radius), per-component
// size maps during unit assembly, append-grown unit lists, and a
// comparison-sorted LPT. It mirrors one Bundle's estimation cache — sizes
// shared by every option variant, one memoized unit set per variant, the
// three probe counters — so the plans and the counters of both can be
// compared call by call.
type OracleEstimator struct {
	b       *Bundle
	sizes   map[oracleReq]int
	entries map[estKey][]workUnit
	stats   EstStats
}

// NewOracle returns the oracle of a bundle that inherited nothing.
func NewOracle(b *Bundle) *OracleEstimator {
	return &OracleEstimator{b: b, sizes: map[oracleReq]int{}, entries: map[estKey][]workUnit{}}
}

// Stats returns the oracle's counters.
func (o *OracleEstimator) Stats() EstStats { return o.stats }

// Plan is the oracle's planFor for the replicated engine.
func (o *OracleEstimator) Plan(opt Options) PlanImage {
	opt = opt.Normalized()
	_, groups, gk := o.b.ruleGroupsKeyed(opt)
	key := estKey{gk: gk, n: opt.N, histogramM: opt.HistogramM}
	units, ok := o.entries[key]
	if ok {
		o.stats.Reused++
	} else {
		units = o.assemble(groups, opt)
		o.entries[key] = units
		o.stats.Builds++
	}

	theta := splitThreshold(opt, units)
	var (
		out   []workUnit
		split int
	)
	for _, u := range units {
		s := 0
		if theta > 0 && u.BlockSize > theta && groups[u.group].q.NumNodes() > groups[u.group].pivot.Arity() {
			s = (u.BlockSize + theta - 1) / theta
		}
		if s < 2 {
			out = append(out, u)
			continue
		}
		for rem := 0; rem < s; rem++ {
			su := u
			su.stripeMod, su.stripeRem = s, rem
			su.BlockSize = max(1, u.BlockSize/s)
			out = append(out, su)
			split++
		}
	}
	weights := make([]int, len(out))
	var totalWeight int64
	for i, u := range out {
		weights[i] = u.Weight()
		totalWeight += int64(u.Weight())
	}
	assign := oracleLPT(weights, opt.N)
	return imageOf(out, split, assign, totalWeight, assign.Makespan(weights))
}

func (o *OracleEstimator) assemble(groups []*ruleGroup, opt Options) []workUnit {
	b := o.b
	type task struct {
		group  int
		ranges []stats.Range
	}
	var tasks []task
	cands := make([][][]graph.NodeID, len(groups))
	for gi, grp := range groups {
		k := grp.pivot.Arity()
		cands[gi] = make([][]graph.NodeID, k)
		ranges := make([][]stats.Range, k)
		for i := 0; i < k; i++ {
			cands[gi][i] = oracleValueOrder(b.g, oracleCandidates(b.g, grp.pivot, i), "val")
			ranges[i] = stats.EquiDepth(len(cands[gi][i]), opt.HistogramM)
		}
		symmetric := !opt.NoOptimize && grp.pivot.Symmetric() && k == 2
		switch k {
		case 1:
			for _, r := range ranges[0] {
				tasks = append(tasks, task{gi, []stats.Range{r}})
			}
		case 2:
			for i, r1 := range ranges[0] {
				for j, r2 := range ranges[1] {
					if symmetric && j < i {
						continue
					}
					tasks = append(tasks, task{gi, []stats.Range{r1, r2}})
				}
			}
		default:
			full := make([]stats.Range, k)
			for i := range full {
				full[i] = stats.Range{Lo: 0, Hi: len(cands[gi][i])}
			}
			tasks = append(tasks, task{gi, full})
		}
	}

	for gi, grp := range groups {
		for i := 0; i < grp.pivot.Arity(); i++ {
			for _, v := range cands[gi][i] {
				k := oracleReq{v, grp.pivot.Radii[i]}
				if _, ok := o.sizes[k]; !ok {
					o.sizes[k] = b.topo.NeighborhoodSize(k.node, k.radius)
					o.stats.Measured++
				}
			}
		}
	}

	var units []workUnit
	for w := 0; w < opt.N; w++ {
		for ti := w; ti < len(tasks); ti += opt.N {
			t := tasks[ti]
			pv := groups[t.group].pivot
			lists := make([][]graph.NodeID, len(t.ranges))
			sizes := make([]map[graph.NodeID]int, len(t.ranges))
			for i, r := range t.ranges {
				lists[i] = cands[t.group][i][r.Lo:r.Hi]
				sizes[i] = make(map[graph.NodeID]int, len(lists[i]))
				for _, v := range lists[i] {
					sizes[i][v] = o.sizes[oracleReq{v, pv.Radii[i]}]
				}
			}
			dedup := !opt.NoOptimize && pv.Symmetric() && len(t.ranges) == 2 && t.ranges[0] == t.ranges[1]
			oracleCross(lists, make([]graph.NodeID, len(lists)), 0, dedup, func(vec []graph.NodeID) {
				total := 0
				for i, v := range vec {
					total += sizes[i][v]
				}
				units = append(units, workUnit{
					Unit:  workload.Unit{Pivot: pv, Candidates: append([]graph.NodeID(nil), vec...), BlockSize: total},
					group: t.group,
				})
			})
		}
	}
	return units
}

// oracleCandidates is the candidate set read through the mutable graph's
// strings: every node whose label the pivot's admits, whose filter
// attribute, for a seeded component, holds one of its constants, and whose
// star holds (oracleStar).
func oracleCandidates(g *graph.Graph, pv *workload.Pivot, i int) []graph.NodeID {
	label, f := pv.Q.Nodes[pv.Vars[i]].Label, pv.Filters[i]
	var out []graph.NodeID
	for v := range graph.NodeID(g.NumNodes()) {
		if !pattern.LabelMatches(label, g.Label(v)) {
			continue
		}
		if f.Active() {
			if val, ok := g.Attr(v, f.Attr); !ok || !slices.Contains(f.Values, val) {
				continue
			}
		}
		if oracleStar(g, pv.Q, pv.Vars[i], v) {
			out = append(out, v)
		}
	}
	return out
}

// oracleStar reports whether every pattern neighbour q of z can bind at v:
// each pattern edge joining z and q has a graph edge at v in its direction
// — with its label reaching a node of q's label, or any edge at all for a
// wildcard edge label — and the edges whose labels and q's are concrete
// reach one common node.
func oracleStar(g *graph.Graph, q *pattern.Pattern, z int, v graph.NodeID) bool {
	common := map[int]map[graph.NodeID]bool{} // neighbour -> nodes every concrete edge reaches
	reach := func(nbr int, label string, es []graph.HalfEdge) bool {
		if label == pattern.Wildcard {
			return len(es) > 0
		}
		nl := q.Nodes[nbr].Label
		hit := map[graph.NodeID]bool{}
		for _, e := range es {
			if e.Label == label && pattern.LabelMatches(nl, g.Label(e.To)) {
				hit[e.To] = true
			}
		}
		if len(hit) == 0 || nl == pattern.Wildcard {
			return len(hit) > 0
		}
		if prev, ok := common[nbr]; ok {
			maps.DeleteFunc(hit, func(w graph.NodeID, _ bool) bool { return !prev[w] })
		}
		common[nbr] = hit
		return len(hit) > 0
	}
	for _, ei := range q.OutEdges(z) {
		if e := q.Edges[ei]; !reach(e.To, e.Label, g.Out(v)) {
			return false
		}
	}
	for _, ei := range q.InEdges(z) {
		if e := q.Edges[ei]; !reach(e.From, e.Label, g.In(v)) {
			return false
		}
	}
	return true
}

// oracleValueOrder sorts candidates by attribute value read through the
// mutable graph's string API on every comparison: missing attribute first,
// then value string order, then ID.
func oracleValueOrder(g *graph.Graph, candidates []graph.NodeID, attr string) []graph.NodeID {
	sorted := append([]graph.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool {
		vi, oki := g.Attr(sorted[i], attr)
		vj, okj := g.Attr(sorted[j], attr)
		switch {
		case oki != okj:
			return !oki
		case vi != vj:
			return vi < vj
		default:
			return sorted[i] < sorted[j]
		}
	})
	return sorted
}

// oracleCross enumerates candidate vectors with pairwise-distinct entries;
// symmetric keeps only the ordered pairs v[0] < v[1].
func oracleCross(cands [][]graph.NodeID, vec []graph.NodeID, depth int, symmetric bool, emit func([]graph.NodeID)) {
	if depth == len(cands) {
		emit(vec)
		return
	}
next:
	for _, v := range cands[depth] {
		if symmetric && depth == 1 && v <= vec[0] {
			continue
		}
		for i := 0; i < depth; i++ {
			if vec[i] == v {
				continue next
			}
		}
		vec[depth] = v
		oracleCross(cands, vec, depth+1, symmetric, emit)
	}
}

// oracleLPT is longest-processing-time-first by comparison sort, each
// worker's list grown by append.
func oracleLPT(weights []int, n int) workload.Assignment {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	out := make(workload.Assignment, n)
	loads := make([]float64, n)
	for _, u := range order {
		best, bestCost := 0, 0.0
		for w := 0; w < n; w++ {
			if cost := loads[w] + float64(weights[u]); w == 0 || cost < bestCost {
				best, bestCost = w, cost
			}
		}
		out[best] = append(out[best], u)
		loads[best] += float64(weights[u])
	}
	return out
}

// InheritedBy returns the oracle of the bundle that superseded o's: the
// counters carry; the sizes carry only when the topology delta between the
// two bundles is known from an overlay touch log, minus every measurement
// with a touched node within its radius.
func (o *OracleEstimator) InheritedBy(b *Bundle) *OracleEstimator {
	next := NewOracle(b)
	next.stats = o.stats
	prev := o.b
	if len(o.sizes) == 0 {
		return next
	}
	var touched []graph.NodeID
	switch pt := prev.topo.(type) {
	case *graph.Overlay:
		if !pt.Synced() || pt.Graph() != b.g {
			return next
		}
		touched = pt.TouchedSince(prev.touchMark)
	case *graph.Snapshot:
		ov, ok := b.topo.(*graph.Overlay)
		if !ok || ov.Base() != pt || ov.Graph() != b.g {
			return next
		}
		touched = ov.TouchedSince(0)
	default:
		return next
	}
	maxR := 0
	for k := range o.sizes {
		maxR = max(maxR, k.radius)
	}
	stale := distWithin(b.topo, touched, maxR)
	for k, v := range o.sizes {
		if d, ok := stale[k.node]; ok && d <= k.radius {
			continue
		}
		next.sizes[k] = v
	}
	return next
}
