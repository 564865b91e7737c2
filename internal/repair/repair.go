// Package repair turns violation reports into repair suggestions — the
// downstream use the paper positions GFDs for ("dependencies ... have
// proven effective in capturing semantic inconsistencies", Section 1; the
// repair step itself is delegated to data-quality tooling such as
// BigDansing, which consumes exactly this kind of evidence).
//
// The suggester works per failed consequent literal:
//
//   - a failed constant literal x.A = c proposes setting h(x).A to c (the
//     rule states the required value outright);
//   - a failed variable literal x.A = y.B is resolved by *blame voting*
//     across all failures of that literal: the endpoint disagreeing with
//     more distinct partners is blamed, and the proposed value is the
//     majority value among its partners. Ties produce a suggestion with
//     both candidate values and lower confidence.
//
// Suggestions are evidence, not automatic fixes: Apply exists for
// experimentation and replays suggestions above a confidence threshold.
//
// Culprits answers the coarser question Exp-5 scores (Fig. 9): which
// entities a report implicates. It votes per (rule, literal) and per node
// rather than per cell, and names nodes without proposing values. Both
// read the report through one walk over its failed consequent literals.
package repair

import (
	"fmt"
	"slices"
	"sort"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/validate"
)

// Suggestion is one proposed attribute repair.
type Suggestion struct {
	Node       graph.NodeID
	Attr       string
	Current    string  // present value ("" when the attribute is missing)
	Proposed   string  // value that would satisfy the failed literals
	Confidence float64 // ∈ (0, 1]: agreement mass behind the proposal
	Rules      []string
}

func (s Suggestion) String() string {
	return fmt.Sprintf("set node %d .%s = %q (was %q, confidence %.2f, rules %v)",
		s.Node, s.Attr, s.Proposed, s.Current, s.Confidence, s.Rules)
}

// cell identifies one attribute occurrence (node, attribute).
type cell struct {
	node graph.NodeID
	attr string
}

// Suggest analyzes a violation report and returns repair suggestions,
// ordered by descending confidence and then by node.
func Suggest(g *graph.Graph, set *core.Set, vio validate.Report) []Suggestion {
	// For constant literals: required value per cell, with rule evidence.
	constWant := make(map[cell]map[string][]string) // cell -> value -> rules
	// For variable literals: observed partner values per cell.
	varSeen := make(map[cell]map[string][]string)
	disagree := make(map[cell]map[graph.NodeID]struct{})

	record := func(m map[cell]map[string][]string, c cell, val, rule string) {
		if m[c] == nil {
			m[c] = make(map[string][]string)
		}
		m[c][val] = append(m[c][val], rule)
	}

	eachFailure(g, set, vio, func(f failure) {
		cx := cell{f.x, f.lit.A}
		if f.lit.Kind == core.Constant {
			record(constWant, cx, f.lit.C, f.rule)
			return
		}
		cy := cell{f.y, f.lit.B}
		if f.yOK {
			record(varSeen, cx, f.yVal, f.rule)
		}
		if f.xOK {
			record(varSeen, cy, f.xVal, f.rule)
		}
		markDisagree(disagree, cx, f.y)
		markDisagree(disagree, cy, f.x)
	})

	var out []Suggestion
	for c, want := range constWant {
		val, rules := majority(want)
		cur, _ := g.Attr(c.node, c.attr)
		out = append(out, Suggestion{
			Node: c.node, Attr: c.attr, Current: cur, Proposed: val,
			Confidence: 1.0, Rules: dedupe(rules),
		})
	}
	for c, seen := range varSeen {
		// Blame voting: suggest a repair for this cell only if it
		// disagrees with at least as many distinct partners as any single
		// partner value's owner would — approximated by requiring ≥ 2
		// distinct partners, or exactly one with a deterministic
		// tie-break on node order.
		partners := len(disagree[c])
		val, rules := majority(seen)
		cur, _ := g.Attr(c.node, c.attr)
		conf := float64(len(seen[val])) / float64(total(seen))
		if partners < 2 {
			conf /= 2 // symmetric 1-vs-1 disagreement: either side may be wrong
		}
		out = append(out, Suggestion{
			Node: c.node, Attr: c.attr, Current: cur, Proposed: val,
			Confidence: conf, Rules: dedupe(rules),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Confidence != out[j].Confidence {
			return out[i].Confidence > out[j].Confidence
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Attr < out[j].Attr
	})
	return out
}

// Culprits returns the entities a violation report implicates, ascending
// and distinct: the detected set Vio(A) that Exp-5 scores against the
// injected errors. A failed constant literal blames its endpoint and a
// missing attribute its owner. A failed variable literal x.A = y.B between
// two present values is resolved by blame voting across all failures of
// the same literal of the same rule: the endpoint disagreeing with more
// distinct partners is blamed (a corrupted value disagrees with everyone;
// an innocent partner only with corrupted ones), and a tie blames both —
// from data alone a 1-vs-1 disagreement is symmetric. Violations of rules
// not in set are skipped.
func Culprits(g *graph.Graph, set *core.Set, vio validate.Report) []graph.NodeID {
	type end struct {
		rule string
		li   int
		node graph.NodeID
	}
	partners := make(map[end]map[graph.NodeID]struct{})
	var out []graph.NodeID
	var voted []failure
	eachFailure(g, set, vio, func(f failure) {
		switch {
		case f.lit.Kind == core.Constant || !f.xOK:
			out = append(out, f.x)
		case !f.yOK:
			out = append(out, f.y)
		default:
			markDisagree(partners, end{f.rule, f.li, f.x}, f.y)
			markDisagree(partners, end{f.rule, f.li, f.y}, f.x)
			voted = append(voted, f)
		}
	})
	for _, f := range voted {
		cx, cy := len(partners[end{f.rule, f.li, f.x}]), len(partners[end{f.rule, f.li, f.y}])
		if cx >= cy {
			out = append(out, f.x)
		}
		if cy >= cx {
			out = append(out, f.y)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// failure is one failed consequent literal of one violation: the rule, the
// literal and its index in the rule's Y, and both endpoints with their
// values (a constant literal has no y endpoint).
type failure struct {
	rule       string
	li         int
	lit        core.Literal
	x, y       graph.NodeID
	xVal, yVal string
	xOK, yOK   bool
}

// eachFailure calls fn for every failed Y literal of every violation in vio
// whose rule is in set, reading each endpoint's value once.
func eachFailure(g *graph.Graph, set *core.Set, vio validate.Report, fn func(failure)) {
	for _, v := range vio {
		f := set.Get(v.Rule)
		if f == nil {
			continue
		}
		for li, l := range f.Y {
			xi, _ := f.Q.VarIndex(l.X)
			fl := failure{rule: v.Rule, li: li, lit: l, x: v.Match[xi]}
			fl.xVal, fl.xOK = g.Attr(fl.x, l.A)
			if l.Kind == core.Constant {
				if fl.xOK && fl.xVal == l.C {
					continue
				}
			} else {
				yi, _ := f.Q.VarIndex(l.Y)
				fl.y = v.Match[yi]
				fl.yVal, fl.yOK = g.Attr(fl.y, l.B)
				if fl.xOK && fl.yOK && fl.xVal == fl.yVal {
					continue // this literal holds; another one failed
				}
			}
			fn(fl)
		}
	}
}

// Apply replays every suggestion with confidence ≥ threshold onto the
// graph and returns how many were applied. Suggestions proposing the
// current value are skipped.
func Apply(g *graph.Graph, suggestions []Suggestion, threshold float64) int {
	applied := 0
	for _, s := range suggestions {
		if s.Confidence < threshold {
			continue
		}
		if cur, ok := g.Attr(s.Node, s.Attr); ok && cur == s.Proposed {
			continue
		}
		g.SetAttr(s.Node, s.Attr, s.Proposed)
		applied++
	}
	return applied
}

func markDisagree[K comparable](m map[K]map[graph.NodeID]struct{}, k K, other graph.NodeID) {
	if m[k] == nil {
		m[k] = make(map[graph.NodeID]struct{})
	}
	m[k][other] = struct{}{}
}

// majority returns the value with the most supporting rules (ties broken
// lexicographically for determinism) plus its evidence.
func majority(m map[string][]string) (string, []string) {
	best, bestN := "", -1
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if n := len(m[k]); n > bestN {
			best, bestN = k, n
		}
	}
	return best, m[best]
}

func total(m map[string][]string) int {
	n := 0
	for _, v := range m {
		n += len(v)
	}
	return n
}

func dedupe(xs []string) []string {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}
