package reason

import (
	"gfd/internal/core"
	"gfd/internal/pattern"
)

// litKind mirrors core.LiteralKind for host-rewritten literals.
type litKind uint8

const (
	litConst litKind = iota
	litVar
)

// hostLiteral is a literal rewritten onto host pattern node indices via an
// embedding f: variables become the host nodes f maps them to.
type hostLiteral struct {
	xNode int
	a     string
	kind  litKind
	c     string
	yNode int
	b     string
}

// embeddedGFD is an embedded GFD of some ϕ ∈ Σ in a host pattern Q
// (Section 4.1): the dependency f(X) → f(Y) enforced on every match of Q.
type embeddedGFD struct {
	src  *core.GFD // provenance, for diagnostics
	x, y []hostLiteral
}

// embedAll derives the set Σ_Q of GFDs embedded in host from every rule of
// rules, taking all isomorphic embeddings. Exact embeddings only: a
// concrete sub label never maps onto a wildcard host node.
func embedAll(rules []*core.GFD, host *pattern.Pattern) []embeddedGFD {
	var out []embeddedGFD
	for _, f := range rules {
		for _, emb := range pattern.Embeddings(f.Q, host) {
			out = append(out, rewrite(f, emb.Map))
		}
	}
	return out
}

// rewrite maps ϕ's literals through an embedding (sub node -> host node).
func rewrite(f *core.GFD, m []int) embeddedGFD {
	conv := func(ls []core.Literal) []hostLiteral {
		out := make([]hostLiteral, 0, len(ls))
		for _, l := range ls {
			xi, _ := f.Q.VarIndex(l.X)
			hl := hostLiteral{xNode: m[xi], a: l.A}
			if l.Kind == core.Constant {
				hl.kind = litConst
				hl.c = l.C
			} else {
				yi, _ := f.Q.VarIndex(l.Y)
				hl.kind = litVar
				hl.yNode = m[yi]
				hl.b = l.B
			}
			out = append(out, hl)
		}
		return out
	}
	return embeddedGFD{src: f, x: conv(f.X), y: conv(f.Y)}
}

// chase runs the inductive closure of Section 4: starting from rel (empty
// for enforced(Σ_Q), seeded with X for closure(Σ_Q, X)), repeatedly applies
// every embedded GFD whose antecedent literals are all derivable, merging
// its consequent into the closure, until fixpoint. The closure computation
// is PTIME, mirroring relational FD closures.
func chase(rel *eqRel, emb []embeddedGFD) {
	changed := true
	for changed && !rel.conflict {
		changed = false
		for _, e := range emb {
			if !allHold(rel, e.x) {
				continue
			}
			for _, l := range e.y {
				if rel.apply(l) {
					changed = true
				}
				if rel.conflict {
					return
				}
			}
		}
	}
}

func allHold(rel *eqRel, ls []hostLiteral) bool {
	for _, l := range ls {
		if !rel.holds(l) {
			return false
		}
	}
	return true
}
