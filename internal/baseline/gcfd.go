// Package baseline implements the two comparison systems of Exp-5
// (Appendix, "Compared with Other Approaches"):
//
//   - GCFDs, the extension of CFDs to RDF of He et al. [23], whose
//     patterns are restricted to conjunctive *paths* — no general graph
//     patterns, no cycles, no cross-path identity tests. Rules outside
//     that fragment are inexpressible and silently dropped, which is what
//     costs the baseline recall.
//   - A BigDansing-style detector [28] that encodes the graph as
//     node/edge/attribute relations and evaluates each rule as a chain of
//     relational joins with a final isomorphism (distinctness) filter — the
//     same answers as the GFD engine, at the cost of join-sized
//     intermediates instead of pivot-localized search.
package baseline

import (
	"context"
	"sync"

	"gfd/internal/core"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

// GCFD is a conditional functional dependency over a single path pattern.
type GCFD struct {
	Name string
	Path *pattern.Pattern // a simple directed path
	X, Y []core.Literal

	once sync.Once
	rule *core.GFD // the GFD encoding, compiled once per GCFD
}

// compiled returns the GCFD's GFD encoding, built lazily so that
// hand-constructed GCFDs work and repeated Detect calls stop re-encoding
// the rule (the bundle keeps the GFD's literal program).
func (c *GCFD) compiled() *core.GFD {
	c.once.Do(func() {
		if c.rule == nil {
			c.rule = core.MustNew(c.Name, c.Path, c.X, c.Y)
		}
	})
	return c.rule
}

// FromGFD converts a GFD into a GCFD when expressible. A GCFD is a CFD
// whose scope is a conjunctive *path*: its "relation" is the set of path
// instances, and — CFD semantics being pairwise over tuples — a dependency
// may compare two instances of the same path. Hence expressible patterns
// are (a) one simple directed path (the CFD applies per instance or per
// instance pair) or (b) two isomorphic simple-path components (explicit
// pair form). Branching, cyclic, or heterogeneous patterns — the shapes
// that motivate GFDs, including all of the paper's Fig. 7 rules — are
// inexpressible. Returns false for those.
func FromGFD(f *core.GFD) (*GCFD, bool) {
	comps := f.Q.Components()
	switch len(comps) {
	case 1:
		if !isSimplePath(f.Q) {
			return nil, false
		}
	case 2:
		if len(comps[0]) != len(comps[1]) {
			return nil, false
		}
		a := subPathPattern(f.Q, comps[0])
		b := subPathPattern(f.Q, comps[1])
		if a == nil || b == nil {
			return nil, false
		}
		if _, ok := pattern.Isomorphism(a, b, nil); !ok {
			return nil, false
		}
	default:
		return nil, false
	}
	// The converted GCFD shares the source GFD as its compiled encoding
	// (the scope and dependency are unchanged), so a bundle holding the
	// rule's program shares it with the GFD engine.
	return &GCFD{Name: f.Name, Path: f.Q, X: f.X, Y: f.Y, rule: f}, true
}

// subPathPattern returns the sub-pattern induced by a component's nodes,
// or nil unless it is a simple directed path.
func subPathPattern(q *pattern.Pattern, members []int) *pattern.Pattern {
	if sub := pattern.Induced(q, members); isSimplePath(sub) {
		return sub
	}
	return nil
}

// ConvertSet converts every expressible rule of a GFD set, returning the
// GCFD rules plus the number dropped as inexpressible.
func ConvertSet(s *core.Set) (rules []*GCFD, dropped int) {
	var out []*GCFD
	for _, f := range s.Rules() {
		if c, ok := FromGFD(f); ok {
			out = append(out, c)
		} else {
			dropped++
		}
	}
	return out, dropped
}

// isSimplePath reports whether q is a single directed chain
// v0 -> v1 -> ... -> vk with no extra edges.
func isSimplePath(q *pattern.Pattern) bool {
	n := q.NumNodes()
	if n == 0 || q.NumEdges() != n-1 {
		return false
	}
	starts := 0
	for v := 0; v < n; v++ {
		out, in := len(q.OutEdges(v)), len(q.InEdges(v))
		if out > 1 || in > 1 {
			return false
		}
		if in == 0 {
			starts++
		}
	}
	if starts != 1 {
		return false
	}
	// n-1 edges, max in/out degree 1, single source: a simple chain as
	// long as it is connected, which the degree constraints plus edge
	// count guarantee (a second component would need its own source).
	return true
}

// DetectB runs GCFD validation over a prepared bundle: path matches are
// enumerated (path patterns are a special case the shared matcher handles
// in linear time per match) and checked against X → Y via the compiled
// literal program, exactly as the GFD engine does, and violations are
// reported in the same format, so accuracy is directly comparable. It is
// validate.ScanRules over each GCFD's GFD encoding: n workers take rules
// round-robin, each rule's X is pushed into the search, violations stream
// onto each worker's sink lane (unsorted), and a cancelled context aborts
// with its error. A panicking worker makes the run return a
// *validate.PartialError (Unit -1) listing every death. The session layer
// runs EngineGCFD through it, so a prepared rule conversion is validated
// without re-freezing or re-encoding anything.
func DetectB(ctx context.Context, b *validate.Bundle, rules []*GCFD, n int, sink validate.Sink) error {
	gfds := make([]*core.GFD, len(rules))
	for i, c := range rules {
		gfds[i] = c.compiled()
	}
	return validate.ScanRules(ctx, b, gfds, n, sink)
}
