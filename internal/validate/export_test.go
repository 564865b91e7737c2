package validate

import (
	"maps"
	"slices"
	"testing"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/workload"
)

// This file serves the external tests of the planning path (plan_test.go,
// package validate_test, which may import session, store, exp and dist
// where this package may not): it flattens a memoized plan into plain
// values, exposes the chunk-granularity hook, and keeps the candidate
// oracle read through the mutable graph's strings.

// RuleThenIDs is the canonical order of a report, apart from the keyer.
var RuleThenIDs = ruleThenIDs

// RandomWorkload and OracleVio serve the incremental detector's property
// test and the metamorphic harness, which live outside the package because
// they import the detector, the session and the multi-process engine; the
// harness also runs the paper's G1 with φ1, the seeded KB workload and
// every engine variant, and ends by waiting for the goroutine count to
// settle.
var (
	RandomWorkload = randomWorkload
	OracleVio      = oracleVio
	PaperG1        = paperG1
	Phi1           = phi1
	SeededKB       = seededKB
	AllVariants    = allVariants
	WaitGoroutines = waitGoroutines
)

// SetGranularity sets the chunk-granularity constants to perSlot chunks
// per slot and minMembers members per chunk for the rest of t, restoring
// them when it ends. Plans are memoized per bundle, so only bundles planned
// after the call are cut at the new granularity. Tests that call it must
// not run in parallel with other planning tests.
func SetGranularity(t testing.TB, perSlot, minMembers int) {
	t.Cleanup(SetChunkGranularity(perSlot, minMembers))
}

// InjectSlots arms p on the goroutine slots of every engine run for the
// rest of t, through the wrapSlots seam, each run with counters of its own;
// a later call replaces the plan. Tests that call it must not run in
// parallel with other engine runs.
func InjectSlots(t testing.TB, p *FaultPlan) {
	old := wrapSlots
	wrapSlots = func(e Executor) Executor { return p.arm(e, e.(*goroutines).opt.UnitDeadline) }
	t.Cleanup(func() { wrapSlots = old })
}

// PlanImage is everything the engines take from planFor: the units with
// their weights and, for disVal, their ship costs (per unit, the bytes each
// worker would need shipped; nil for the replicated engines).
type PlanImage struct {
	Units       []Unit
	Weights     []int
	Ship        [][]int64
	Split       int
	Assign      workload.Assignment
	TotalWeight int64
	Makespan    int64
}

// coldPlan runs the planning prefix of the engine over frag (nil for the
// replicated engine): planFor, on a fresh cluster.
func (b *Bundle) coldPlan(opt Options, frag *fragment.Fragmentation) (*planEntry, error) {
	opt = opt.Normalized()
	opt.N = slots(opt, frag)
	_, groups, gk := b.ruleGroupsKeyed(opt)
	return b.planFor(cluster.New(opt.N), groups, gk, opt, frag)
}

// ColdPlan plans opt's variant and returns the plan's unit count.
func (b *Bundle) ColdPlan(opt Options) (int, error) {
	p, err := b.coldPlan(opt, nil)
	if err != nil {
		return 0, err
	}
	return len(p.chunks.units), nil
}

// Plan is ColdPlan returning the whole plan, flattened.
func (b *Bundle) Plan(opt Options) (PlanImage, error) { return b.PlanOver(opt, nil) }

// PlanOver is Plan for the engine over frag: disVal's plan, with its ship
// costs, when frag is not nil.
func (b *Bundle) PlanOver(opt Options, frag *fragment.Fragmentation) (PlanImage, error) {
	p, err := b.coldPlan(opt, frag)
	if err != nil {
		return PlanImage{}, err
	}
	cs := p.chunks
	return PlanImage{cs.units, cs.weights, p.ship, cs.split, p.assign, p.totalWeight, p.makespan}, nil
}

// PlanCandidates plans opt's variant and returns every unit's pivot
// candidates, per component, through the plan's survivor memo (running
// the star tests no round has run yet).
func (b *Bundle) PlanCandidates(opt Options) ([][][]graph.NodeID, error) {
	p, err := b.coldPlan(opt, nil)
	if err != nil {
		return nil, err
	}
	out := make([][][]graph.NodeID, len(p.chunks.units))
	for i := range out {
		out[i] = b.candidatesOf(p.chunks, i)
	}
	return out, nil
}

// PlanVectors is the number of pivot vectors opt's plan enumerates — the
// per-candidate units of the paper's workload model — counting a striped
// pivot once: per unit the pairwise-distinct vectors over its candidates,
// a symmetric group's unordered pairs once where its units are deduped.
func (b *Bundle) PlanVectors(opt Options) (int, error) {
	opt = opt.Normalized()
	p, err := b.coldPlan(opt, nil)
	if err != nil {
		return 0, err
	}
	n := 0
	for i, u := range p.chunks.units {
		if u.StripeRem > 0 {
			continue
		}
		cands := b.candidatesOf(p.chunks, i)
		sym := !opt.NoOptimize && p.chunks.pivot(i).Symmetric()
		if len(cands) == 1 {
			n += len(cands[0])
			continue
		}
		eachVector(cands, sym && u.Ranges[0] == u.Ranges[1], func([]graph.NodeID) bool { n++; return true })
	}
	return n, nil
}

// eachVector enumerates candidate vectors with pairwise-distinct entries
// (pivots are images of distinct pattern nodes under an injective match)
// over per-component candidate lists, in cross-product order; symmetric
// keeps only the ordered pairs v[0] < v[1] of a two-component pattern. It
// stops when fn returns false; the vector passed to fn is reused. A unit
// binds every pivot to its list in one enumeration instead
// (match.Options.Pins); the tests count and walk vectors with it.
func eachVector(cands [][]graph.NodeID, symmetric bool, fn func([]graph.NodeID) bool) {
	vec := make([]graph.NodeID, len(cands))
	var walk func(depth int) bool
	walk = func(depth int) bool {
		if depth == len(cands) {
			return fn(vec)
		}
		for _, v := range cands[depth] {
			if symmetric && depth == 1 && v <= vec[0] || slices.Contains(vec[:depth], v) {
				continue
			}
			vec[depth] = v
			if !walk(depth + 1) {
				return false
			}
		}
		return true
	}
	if len(cands) > 0 {
		walk(0)
	}
}

// GroupShape is one rule group's pattern, member rules, pivot variables,
// their lowered seeds and stripe node.
type GroupShape struct {
	Q      *pattern.Pattern
	Rules  []*core.GFD
	Pivot  *workload.Pivot
	Pivots []int
	Seeds  [][]graph.AttrPair
	Stripe int
}

// GroupShapes returns the shape of every rule group of opt's variant.
func (b *Bundle) GroupShapes(opt Options) []GroupShape {
	_, gs, _ := b.ruleGroupsKeyed(opt.Normalized())
	out := make([]GroupShape, len(gs))
	for i, grp := range gs {
		seeds := make([][]graph.AttrPair, grp.pivot.Arity())
		for c := range seeds {
			seeds[c] = grp.pivot.Seeds(c)
		}
		rules := make([]*core.GFD, len(grp.deps))
		for k, d := range grp.deps {
			rules[k] = d.rule
		}
		out[i] = GroupShape{grp.q, rules, grp.pivot, grp.pivot.Vars, seeds, grp.stripe}
	}
	return out
}

// OracleCandidates is the candidate set of a pivot component, lowered onto
// syms, read through the mutable graph's strings and maps.
func OracleCandidates(g *graph.Graph, syms *graph.Symbols, pv *workload.Pivot, i int) []graph.NodeID {
	return oracleCandidates(g, syms, pv, i)
}

// oracleCandidates is the candidate set read through the mutable graph's
// strings: every node whose label the pivot's admits, that holds one of
// the component's seeds (named through syms, the table pv was lowered
// onto) when it has any, and whose star holds (oracleStar).
func oracleCandidates(g *graph.Graph, syms *graph.Symbols, pv *workload.Pivot, i int) []graph.NodeID {
	label, seeds := pv.Q.Nodes[pv.Vars[i]].Label, pv.Seeds(i)
	var out []graph.NodeID
	for v := range graph.NodeID(g.NumNodes()) {
		if !pattern.LabelMatches(label, g.Label(v)) {
			continue
		}
		if seeds != nil && !slices.ContainsFunc(seeds, func(kv graph.AttrPair) bool {
			val, ok := g.Attr(v, syms.Name(kv.Name))
			return ok && val == syms.Name(kv.Val)
		}) {
			continue
		}
		if oracleStar(g, pv.Q, pv.Vars[i], v) {
			out = append(out, v)
		}
	}
	return out
}

// seedNames renders seeds lowered onto syms as sorted "attr=value" strings.
func seedNames(syms *graph.Symbols, seeds []graph.AttrPair) []string {
	out := make([]string, len(seeds))
	for i, kv := range seeds {
		out[i] = syms.Name(kv.Name) + "=" + syms.Name(kv.Val)
	}
	slices.Sort(out)
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
