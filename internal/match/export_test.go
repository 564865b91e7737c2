package match

import (
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Tries reports the candidate tries the matcher has made while an
// Options.Halt probe was armed: the counter that strides the probe.
func (m *Matcher) Tries() uint32 { return m.tick }

// SemiJoined reports whether m's last enumeration held a fixed run in the
// semi-join bitset: the owner outlives the call until the next one starts.
func (m *Matcher) SemiJoined() bool { return m.setEdge >= 0 }

// Plan returns the plan Enumerate(q, opts) runs: the matching order and
// the guard instructions due at each depth. It is the cached value, shared
// read-only with the matcher.
func (m *Matcher) Plan(q *pattern.Pattern, opts Options) Plan {
	m.prepare(q, &opts)
	return *m.plan
}

// Seeds returns, per depth, the (attribute, value) pairs whose holders
// a component opened there iterates instead of its class; nil if none.
func (p Plan) Seeds() [][]graph.AttrPair { return p.seeds }

// Count returns the number of matches of q under opts.
func (m *Matcher) Count(q *pattern.Pattern, opts Options) int {
	n := 0
	m.Enumerate(q, opts, func(core.Match) bool {
		n++
		return opts.Limit == 0 || n < opts.Limit
	})
	return n
}

// Has reports whether q has at least one match under opts.
func (m *Matcher) Has(q *pattern.Pattern, opts Options) bool {
	found := false
	m.Enumerate(q, opts, func(core.Match) bool {
		found = true
		return false
	})
	return found
}

// Count returns the number of matches of q in g under opts.
func Count(g *graph.Graph, q *pattern.Pattern, opts Options) int {
	n := 0
	Enumerate(g, q, opts, func(core.Match) bool {
		n++
		return opts.Limit == 0 || n < opts.Limit
	})
	return n
}

// Has reports whether q has at least one match in g under opts.
func Has(g *graph.Graph, q *pattern.Pattern, opts Options) bool {
	found := false
	Enumerate(g, q, opts, func(core.Match) bool {
		found = true
		return false
	})
	return found
}

// All returns every match (copied) of q in g under opts.
func All(g *graph.Graph, q *pattern.Pattern, opts Options) []core.Match {
	var out []core.Match
	Enumerate(g, q, opts, func(m core.Match) bool {
		out = append(out, append(core.Match(nil), m...))
		return true
	})
	return out
}
