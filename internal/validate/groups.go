package validate

import (
	"slices"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/workload"
)

// depSpec is one rule's dependency attached to a rule group: the rule plus
// the isomorphism perm mapping its own pattern node indices to the group
// pattern's node indices, and (when built through a Bundle) the rule's
// literal program lowered onto the bundle's symbol table.
type depSpec struct {
	rule *core.GFD
	perm []int                // rule node index -> group node index
	prog *core.LiteralProgram // the bundle's, set by bind
}

// ruleGroup is the multi-query processing unit (Appendix, "Multi-query
// processing"): rules whose patterns are isomorphic share a single pattern,
// pivot vector, work-unit set and match enumeration; each match is checked
// against every member dependency.
type ruleGroup struct {
	q      *pattern.Pattern
	pivot  *workload.Pivot // lowered onto the bundle's table by bind
	deps   []depSpec
	stripe int // stripeNode; -1 when the group cannot split
	// guard is every member's X pushed into the group's enumeration (one
	// member per dep, operands remapped through the perms) and cq is q
	// lowered onto the bundle's table; both set by bind.
	guard *core.Guard
	cq    *pattern.Compiled
}

// stripeNode picks the pattern node a group's stripes filter on: the
// lowest-index non-pivot node adjacent to a pivot, which the Matcher binds
// right after the pins; -1 when every node is a pivot. It depends on the
// pattern alone, because the stripes of one unit run on different slots
// and worker processes and partition the unit's matches only if all of
// them filter the same node.
func stripeNode(q *pattern.Pattern, pv *workload.Pivot) int {
	for w := range q.Nodes {
		if slices.Contains(pv.Vars, w) {
			continue
		}
		for _, e := range q.Edges {
			if e.From == w && slices.Contains(pv.Vars, e.To) || e.To == w && slices.Contains(pv.Vars, e.From) {
				return w
			}
		}
	}
	return -1
}

// bind attaches each dependency's program from the rule side and compiles
// the group guard from them, so the per-match hot path (checkMatch) reads
// a program pointer and never locks, reads the group pattern's lowering
// from the side's plans (the group pattern is its first member's Q) and
// lowers the pivot onto the side's table once, seeded where the guard
// seeds its pivot node (core.Guard.SeedsAt), so no unit looks up a name.
// Call under rs.mu.
func (grp *ruleGroup) bind(rs *ruleSide) {
	ps := make([]*core.LiteralProgram, len(grp.deps))
	perms := make([][]int, len(grp.deps))
	for i := range grp.deps {
		grp.deps[i].prog = rs.progs[grp.deps[i].rule]
		ps[i], perms[i] = grp.deps[i].prog, grp.deps[i].perm
	}
	grp.guard = core.GroupGuard(ps, perms)
	grp.cq = rs.plans.Compiled(grp.q)
	grp.pivot = grp.pivot.Lower(rs.syms, grp.guard.SeedsAt)
}

// buildGroups partitions rules into groups. With combine=false (the *nop
// variants), every rule forms its own group and no enumeration sharing
// happens.
//
// Pivots are seeded from constant X: a rule's seed is its X literal x.A = c
// on the node of least eccentricity, the first in X order on a tie
// (seedOf). Isomorphic rules share a group only if their seeds land on the
// same group node and attribute, or neither has one; a seeded group pivots
// its seed node's component there (workload.Pivot.Seed), and bind keeps
// the candidates that hold one of its live members' constants. Symmetric
// two-component patterns are never seeded. The choice reads the rules
// alone, so a worker process rebuilding groups from the shipped rule set
// gets the coordinator's.
func buildGroups(rules []*core.GFD, combine bool) []*ruleGroup {
	var groups []*ruleGroup
	var seeds []seed // per group, in group node indices
	for _, f := range rules {
		pv := workload.ComputePivot(f.Q)
		sd := seed{node: -1}
		if !pv.Symmetric() {
			sd = seedOf(f)
		}
		placed := false
		if combine {
			for gi, grp := range groups {
				gs := &seeds[gi]
				perm, ok := pattern.Isomorphism(f.Q, grp.q, func(perm []int) bool {
					if sd.node < 0 || gs.node < 0 {
						return sd.node == gs.node
					}
					return perm[sd.node] == gs.node && sd.attr == gs.attr
				})
				if ok {
					grp.deps = append(grp.deps, depSpec{rule: f, perm: perm})
					placed = true
					break
				}
			}
		}
		if !placed {
			groups = append(groups, &ruleGroup{
				q:     f.Q,
				pivot: pv,
				deps:  []depSpec{{rule: f, perm: identityPerm(f.Q.NumNodes())}},
			})
			seeds = append(seeds, sd)
		}
	}
	for gi, grp := range groups {
		if sd := seeds[gi]; sd.node >= 0 {
			grp.pivot.Seed(sd.node)
		}
		grp.stripe = stripeNode(grp.q, grp.pivot)
	}
	return groups
}

// seed is where a rule (or group) pins its pivot: a pattern node, -1 for
// none, and the attribute of the constant its X requires there.
type seed struct {
	node int
	attr string
}

// seedOf returns f's seed: the node of its constant X literal of least
// eccentricity (first in X order on a tie) with that literal's attribute,
// or node -1 when X has no constant literal. The literal is f's first
// constant on that node, the one the group guard seeds with.
func seedOf(f *core.GFD) seed {
	sd, best := seed{node: -1}, 0
	for _, l := range f.X {
		if l.Kind != core.Constant {
			continue
		}
		z, _ := f.Q.VarIndex(l.X)
		if ecc := f.Q.Eccentricity(z); sd.node < 0 || ecc < best {
			sd = seed{node: z, attr: l.A}
			best = ecc
		}
	}
	return sd
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// checkMatch evaluates every dependency of the group against a group-level
// match, delivering violations to emit (with matches remapped to each
// rule's own node order). The remapped match is staged in *scratch so the
// per-match hot path allocates only when a violation is actually recorded.
// Literal checking runs each rule's compiled program against the shared
// view's interned attributes.
func (grp *ruleGroup) checkMatch(view *graph.Snapshot, m core.Match, scratch *core.Match, emit func(Violation)) {
	for _, d := range grp.deps {
		rm := *scratch
		if cap(rm) < len(d.perm) {
			rm = make(core.Match, len(d.perm))
		}
		rm = rm[:len(d.perm)]
		*scratch = rm
		for i, gi := range d.perm {
			rm[i] = m[gi]
		}
		if d.prog.IsViolation(view, rm) {
			emit(Violation{Rule: d.rule.Name, Match: append(core.Match(nil), rm...)})
		}
	}
}
