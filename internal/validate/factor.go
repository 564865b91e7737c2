package validate

import (
	"context"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// Factorized group enumeration (FDB-style): rules whose patterns share a
// connected core enumerate that core ONCE and branch per rule at the
// divergence point — the core's image is pinned into each member's own
// enumeration, so the shared prefix of the search tree is never re-walked
// per rule. This turns reason.Reduce's rule-level sharing into match-level
// sharing on the sequential engine; the parallel engines keep their
// pivot-grouped ruleGroup path (groups.go), which shares matches for fully
// isomorphic patterns.

// minFactorCoreNodes is the smallest core worth factorizing: below two
// nodes and one edge the "shared prefix" is a bare label class, which every
// member's own enumeration seeds equally cheaply.
const minFactorCoreNodes = 2

// factorBranch is one rule of a factor group: the per-rule literal program
// plus the embedding of the group core into the rule's pattern.
type factorBranch struct {
	rule *core.GFD
	prog *core.LiteralProgram
	pin  []int // core node index -> rule pattern node index
	// full marks a branch whose pattern the core covers exactly (node and
	// edge bijection, no duplicate parallel edges): a core match IS a rule
	// match modulo the pin permutation, no inner enumeration needed.
	full bool
}

// factorGroup is a set of rules sharing one connected core pattern. A nil
// core means the group declined factorization (singleton, oversized
// pattern, or the profitability guard) and runs per-rule.
type factorGroup struct {
	core     *pattern.Pattern
	branches []factorBranch
	// guard pushes every branch's X literals over core nodes into the core
	// enumeration, one member per branch: a core match is abandoned only
	// once each branch has a failed literal on it. Literals reading a node
	// outside the core wait for the branch's own (guarded) enumeration.
	guard *core.Guard
}

// factorGroups returns the rule set's factor groups, computed once per
// bundle (patterns and class sizes are fixed for a bundle's lifetime) with
// each branch bound to its bundle-held program and the core guard compiled
// from them.
func (b *Bundle) factorGroups() []*factorGroup {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.factors == nil {
		b.factors = buildFactorGroups(b.set.Rules(), b.topo)
		for _, g := range b.factors {
			for i := range g.branches {
				g.branches[i].prog = b.progs[g.branches[i].rule]
			}
			if g.core != nil {
				g.guard = g.coreGuard()
			}
		}
	}
	return b.factors
}

// coreGuard compiles the branches' X literals over core nodes into the
// core enumeration's guard, one member per branch.
func (g *factorGroup) coreGuard() *core.Guard {
	progs := make([]*core.LiteralProgram, len(g.branches))
	perms := make([][]int, len(g.branches))
	for i, br := range g.branches {
		progs[i] = br.prog
		// Invert the core -> rule embedding: rule nodes outside the core
		// stay -1, which leaves their literals out of the guard.
		perm := make([]int, br.rule.Q.NumNodes())
		for ri := range perm {
			perm[ri] = -1
		}
		for ci, ri := range br.pin {
			perm[ri] = ci
		}
		perms[i] = perm
	}
	return core.GroupGuard(progs, perms)
}

// buildFactorGroups greedily groups rules by shared core: each rule joins
// the first group whose running core still shares a connected *cyclic*
// sub-pattern with it, shrinking the group core to the overlap; otherwise
// it opens its own group. Per-branch embeddings resolve against the final
// core.
//
// Two statistics-free profitability guards keep factorization from losing
// to the per-rule loop:
//
//  1. Structural: the core must contain a cycle (edges ≥ nodes on a
//     connected pattern). An acyclic core enumerates in near-constant
//     amortized time per match — re-walking it per rule costs less than
//     the per-core-match inner-enumeration setup factorization replaces
//     it with, so tree cores are a guaranteed loss (the break-even
//     recorded in the ROADMAP). Only a cyclic core does real filtering
//     work per emitted match, which is the cost sharing recovers.
//  2. Class-size (the ROADMAP's spirit): every member's most selective
//     node class must be reachable from the core — i.e. the smallest
//     class size over the core's image is within a small factor of the
//     smallest over the whole pattern. Without it, a barely-selective
//     shared cycle would force members whose own search starts from a
//     tiny class elsewhere to enumerate the core's full match set.
//
// Groups failing either guard fall back to per-rule enumeration
// (core == nil).
//
// Rules whose own pattern is acyclic never enter grouping at all — a
// connected common core can only be cyclic when both hosts contain a
// cycle — so construction does CommonCore's subset enumeration only among
// cyclic rules and is near-free on the (common) tree-only rule sets. That
// matters because the groups build lazily inside the first detection
// call: it sits on the cold-start path to the first violation.
func buildFactorGroups(rules []*core.GFD, topo graph.Topology) []*factorGroup {
	var groups []*factorGroup
	for _, f := range rules {
		placed := false
		eligible := f.Q.NumNodes() >= minFactorCoreNodes && pattern.HasCycle(f.Q)
		if eligible {
			for _, g := range groups {
				if g.core == nil {
					continue
				}
				c, _, _, ok := pattern.CommonCore(g.core, f.Q, minFactorCoreNodes)
				if ok && c.NumEdges() >= c.NumNodes() {
					g.core = c
					g.branches = append(g.branches, factorBranch{rule: f})
					placed = true
					break
				}
			}
		}
		if !placed {
			groups = append(groups, &factorGroup{branches: []factorBranch{{rule: f}}})
			if eligible {
				groups[len(groups)-1].core = f.Q
			}
		}
	}
	syms := topo.Syms()
	for _, g := range groups {
		if len(g.branches) == 1 {
			g.core = nil // nothing shared; run per-rule
			continue
		}
		if !resolveFactorMaps(g, topo, syms) {
			g.core = nil
		}
	}
	return groups
}

// resolveFactorMaps binds each branch's core embedding and applies the
// profitability guard; false declines factorization for the group.
func resolveFactorMaps(g *factorGroup, topo graph.Topology, syms *graph.Symbols) bool {
	coreEst := classEstimates(g.core, topo, syms)
	coreMin := minInt(coreEst)
	for i := range g.branches {
		q := g.branches[i].rule.Q
		m := pattern.StrictEmbedding(g.core, q)
		if m == nil {
			return false
		}
		g.branches[i].pin = m
		g.branches[i].full = len(m) == q.NumNodes() &&
			g.core.NumEdges() == q.NumEdges() &&
			!pattern.HasDuplicateEdges(g.core)
		// Guard: the member's most selective class must (approximately)
		// live inside the core image, or its own search would beat the
		// factorized prefix.
		if qMin := minInt(classEstimates(q, topo, syms)); coreMin > 4*qMin {
			return false
		}
	}
	return true
}

// classEstimates resolves each pattern node's candidate-class size on the
// topology — the same statistics-free estimates the matcher plans with.
func classEstimates(q *pattern.Pattern, topo graph.Topology, syms *graph.Symbols) []int {
	cq := pattern.CompileFor(q, syms)
	out := make([]int, q.NumNodes())
	for v := range out {
		if sym := cq.NodeSyms[v]; sym == graph.WildcardSym {
			out[v] = topo.NumNodes()
		} else {
			out[v] = topo.ClassSize(sym)
		}
	}
	return out
}

func minInt(xs []int) int {
	m := int(^uint(0) >> 1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// detVioFactored is the factorized sequential driver: for every factor
// group it enumerates the shared core once and, per core match, branches
// into each member rule — a full-coverage branch remaps the core match
// through its pin permutation and checks the literal program directly; a
// proper-prefix branch enumerates its pattern with the core image pinned.
// Every enumeration is guarded: per-rule ones and inner branches by the
// rule's own X, the core by the group guard over all branches.
// Violations stream to the sink exactly as DetVioPerRuleB's, in a
// different (group-interleaved) order; the sets coincide because every
// member match restricts to exactly one core match.
func detVioFactored(ctx context.Context, b *Bundle, sink Sink) error {
	topo := b.topo
	outer := match.NewMatcher(topo)
	inner := match.NewMatcher(topo)
	cancel := &cancelCheck{ctx: ctx}
	copts := match.Options{Halt: cancel.canceled}
	emit := func(name string, h core.Match) bool {
		return sink == nil || sink.Emit(0, Violation{Rule: name, Match: append(core.Match(nil), h...)})
	}
	var scratch core.Match
	stopped := false
	for _, g := range b.factorGroups() {
		if g.core == nil {
			for bi := range g.branches {
				br := &g.branches[bi]
				copts.Guard = br.prog.Guard()
				for h := range outer.Matches(br.rule.Q, copts) {
					if cancel.canceled() {
						break
					}
					if br.prog.IsViolation(topo, h) && !emit(br.rule.Name, h) {
						stopped = true
						break
					}
				}
				if stopped || cancel.hit {
					break
				}
			}
		} else {
			pin := make(map[int]graph.NodeID, g.core.NumNodes())
			iopts := match.Options{Pin: pin, Halt: cancel.canceled}
			copts.Guard = g.guard
			outer.Enumerate(g.core, copts, func(pm core.Match) bool {
				for bi := range g.branches {
					br := &g.branches[bi]
					if br.full {
						if cap(scratch) < len(br.pin) {
							scratch = make(core.Match, len(br.pin))
						}
						scratch = scratch[:len(br.pin)]
						for ci, ri := range br.pin {
							scratch[ri] = pm[ci]
						}
						if br.prog.IsViolation(topo, scratch) && !emit(br.rule.Name, scratch) {
							stopped = true
							return false
						}
						continue
					}
					clear(pin)
					for ci, ri := range br.pin {
						pin[ri] = pm[ci]
					}
					// The branch's own guard: literals over the pinned
					// core image fail at the pins, before any search.
					iopts.Guard = br.prog.Guard()
					inner.Enumerate(br.rule.Q, iopts, func(h core.Match) bool {
						if br.prog.IsViolation(topo, h) && !emit(br.rule.Name, h) {
							stopped = true
							return false
						}
						return true
					})
					if stopped || cancel.canceled() {
						return false
					}
				}
				return true
			})
		}
		if cancel.hit {
			return ctx.Err()
		}
		if stopped {
			return nil
		}
	}
	if cancel.hit {
		return ctx.Err()
	}
	return nil
}
