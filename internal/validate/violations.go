// Package validate implements GFD-based inconsistency detection (Sections
// 5 and 6 of the paper): the sequential algorithm detVio, the parallel
// scalable algorithm repVal for replicated graphs (Theorem 10), the
// parallel algorithm disVal for fragmented graphs (Theorem 11), their
// ablation variants repran/repnop/disran/disnop, and the Appendix's
// optimization strategies (multi-query processing, workload reduction, and
// replicate-and-split for skewed graphs).
package validate

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"gfd/internal/core"
	"gfd/internal/graph"
)

// Violation is one element of Vio(Σ, G): a match h(x̄) of some rule's
// pattern that satisfies X but not Y. Match is indexed by the rule's own
// pattern node order.
type Violation struct {
	Rule  string
	Match core.Match
}

// Key returns a canonical string identity for set comparisons.
func (v Violation) Key() string { return string(v.appendKey(nil)) }

// appendKey appends the canonical key — the rule name, then ",<id>" per
// match node — to buf.
func (v Violation) appendKey(buf []byte) []byte {
	buf = append(buf, v.Rule...)
	for _, id := range v.Match {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return buf
}

// Nodes returns the distinct graph nodes involved in the violation — the
// "inconsistent entities" reported to users.
func (v Violation) Nodes() []graph.NodeID {
	seen := make(map[graph.NodeID]struct{}, len(v.Match))
	out := make([]graph.NodeID, 0, len(v.Match))
	for _, id := range v.Match {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

// Report is a set of violations.
type Report []Violation

// Sort orders the report canonically: ascending Key() string order. Every
// key is rendered once, into one shared buffer, and the comparisons run
// over those bytes.
func (r Report) Sort() {
	type keyed struct {
		lo, hi int // the violation's key is keys[lo:hi]
		v      Violation
	}
	keys := make([]byte, 0, 24*len(r)) // a short rule name and two or three IDs
	byKey := make([]keyed, len(r))
	for i, v := range r {
		lo := len(keys)
		keys = v.appendKey(keys)
		byKey[i] = keyed{lo, len(keys), v}
	}
	slices.SortFunc(byKey, func(a, b keyed) int { return bytes.Compare(keys[a.lo:a.hi], keys[b.lo:b.hi]) })
	for i := range byKey {
		r[i] = byKey[i].v
	}
}

// Keys returns the sorted canonical keys.
func (r Report) Keys() []string {
	ks := make([]string, len(r))
	for i, v := range r {
		ks[i] = v.Key()
	}
	sort.Strings(ks)
	return ks
}

// Equal reports whether two reports describe the same violation set.
func (r Report) Equal(other Report) bool {
	a, b := r.Keys(), other.Keys()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ViolatingNodes returns the distinct inconsistent entities across the
// report, the quantity precision/recall are computed over in Exp-5.
func (r Report) ViolatingNodes() graph.NodeSet {
	set := make(graph.NodeSet)
	for _, v := range r {
		for _, id := range v.Nodes() {
			set.Add(id)
		}
	}
	return set
}
