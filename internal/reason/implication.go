package reason

import (
	"gfd/internal/core"
)

// Implies decides Σ |= ϕ: every graph satisfying Σ also satisfies ϕ
// (Section 4.2). It assumes Σ is satisfiable; callers that cannot guarantee
// this should check Satisfiable first (the paper's extended algorithm does
// the same in sequence).
//
// Following Lemma 7, Σ |= ϕ = (Q[x̄], X → Y) iff each normalized consequent
// literal of Y is deducible from Σ and X: it belongs to closure(Σ_Q, X)
// where Σ_Q is the set of GFDs embedded in Q and derived from Σ.
func Implies(s *core.Set, f *core.GFD) bool {
	// An unsatisfiable antecedent makes ϕ hold vacuously.
	if !XSatisfiable(f) {
		return true
	}
	norm := f.Normalize()
	if len(norm) == 0 {
		return true // Y = ∅ holds trivially
	}
	emb := embedAll(s.Rules(), f.Q)
	id := identityMap(f.Q.NumNodes())
	for _, nf := range norm {
		y := rewrite(nf, id).y[0]
		if isTautologyLiteral(y) {
			// x.A = x.A in Y forces the attribute to exist; it is implied
			// only if some rule in the closure also forces x.A (i.e. the
			// chase derives a literal on that term).
			if !termForced(emb, rewrite(nf, id), y) {
				return false
			}
			continue
		}
		rel := newEqRel()
		seedAntecedent(rel, rewrite(nf, id).x)
		if rel.conflict {
			continue // this X is unsatisfiable; literal vacuously implied
		}
		chase(rel, emb)
		if rel.conflict {
			continue // Σ ∪ X inconsistent on Q: anything follows
		}
		if !rel.holds(y) {
			return false
		}
	}
	return true
}

// Reduce returns a cover of Σ with implied rules removed (the Appendix's
// workload-reduction optimization): validating the cover yields the same
// violation set on every graph. Removal is greedy in rule order, re-testing
// implication against the shrinking set so that mutually-implied duplicates
// leave one representative behind.
func Reduce(s *core.Set) *core.Set {
	kept := append([]*core.GFD(nil), s.Rules()...)
	for i := 0; i < len(kept); {
		rest := make([]*core.GFD, 0, len(kept)-1)
		rest = append(rest, kept[:i]...)
		rest = append(rest, kept[i+1:]...)
		if len(rest) > 0 && Implies(core.MustNewSet(rest...), kept[i]) {
			kept = rest
			continue
		}
		i++
	}
	return core.MustNewSet(kept...)
}

func seedAntecedent(rel *eqRel, x []hostLiteral) {
	for _, l := range x {
		rel.apply(l)
	}
}

func isTautologyLiteral(l hostLiteral) bool {
	return l.kind == litVar && l.xNode == l.yNode && l.a == l.b
}

// termForced reports whether the chase starting from ϕ's antecedent derives
// any literal touching the tautology's term, which is what makes the
// attribute's existence a logical consequence.
func termForced(emb []embeddedGFD, ef embeddedGFD, y hostLiteral) bool {
	rel := newEqRel()
	seedAntecedent(rel, ef.x)
	chase(rel, emb)
	// The term is forced when some embedded rule that fires under the
	// closure mentions it in its consequent.
	for _, e := range emb {
		if !allHold(rel, e.x) {
			continue
		}
		for _, l := range e.y {
			if (l.xNode == y.xNode && l.a == y.a) ||
				(l.kind == litVar && l.yNode == y.xNode && l.b == y.a) {
				return true
			}
		}
	}
	return false
}
