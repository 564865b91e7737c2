package match

import "gfd/internal/pattern"

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
