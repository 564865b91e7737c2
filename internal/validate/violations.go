// Package validate implements GFD-based inconsistency detection (Sections
// 5 and 6 of the paper): the sequential algorithm detVio, the parallel
// scalable algorithm repVal for replicated graphs (Theorem 10), the
// parallel algorithm disVal for fragmented graphs (Theorem 11), their
// ablation variants repran/repnop/disran/disnop, and the Appendix's
// optimization strategies (multi-query processing, workload reduction, and
// replicate-and-split for skewed graphs).
package validate

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

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

// Key returns a canonical string identity for set comparisons: the rule
// name, then ",<id>" per match node.
func (v Violation) Key() string {
	buf := []byte(v.Rule)
	for _, id := range v.Match {
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(id), 10)
	}
	return string(buf)
}

// Nodes returns the distinct graph nodes involved in the violation — the
// "inconsistent entities" reported to users.
func (v Violation) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, len(v.Match))
	for _, id := range v.Match {
		if !slices.Contains(out, id) {
			out = append(out, id)
		}
	}
	return out
}

// Report is a set of violations.
type Report []Violation

// Sort orders the report canonically: by rule name (bytewise), then by
// the match's node IDs compared as integers position by position, a match
// ahead of every match it is a prefix of. One sort on integer prefix keys
// (keyer) does it.
func (r Report) Sort() {
	var rules headTable
	var maxID uint32
	ks := make([]keyed, len(r))
	for i, v := range r {
		ks[i] = keyed{key: uint64(rules.of(v.Rule)), i: uint32(i)}
		for _, id := range v.Match {
			maxID = max(maxID, uint32(id))
		}
	}
	kr := newKeyer(rules.names, maxID)
	for i := range ks {
		ks[i].key = kr.key(int(ks[i].key), r[ks[i].i].Match)
	}
	sortKeyed(ks, func(k keyed) Violation { return r[k.i] })
	sorted := make(Report, len(r))
	for p, k := range ks {
		sorted[p] = r[k.i]
	}
	copy(r, sorted)
}

// headTable interns the rule names of a run of violations. Emitters mostly
// repeat the last name, so that is checked before the index.
type headTable struct {
	names []string
	last  int
	index map[string]int
}

func (t *headTable) of(rule string) int {
	if t.last < len(t.names) && t.names[t.last] == rule {
		return t.last
	}
	i, ok := t.index[rule]
	if !ok {
		if t.index == nil {
			t.index = make(map[string]int)
		}
		i, t.index[rule], t.names = len(t.names), len(t.names), append(t.names, rule)
	}
	t.last = i
	return i
}

// keyed is one violation in a sort: its key, and where it lives (a
// lane's chunk c and offset i, or a report's index i).
type keyed struct {
	key  uint64
	c, i uint32
}

// keyer builds, per violation, a uint64 prefix key that is monotone in
// the canonical order: key(a) < key(b) implies compareViolations(a, b) < 0.
// The key is the rank of the violation's rule name among the distinct
// names, followed by as many match IDs as fit, in radix maxID+1. A slot
// past the end of the match reads 0, as ID 0 does, so a match and its
// extensions by 0s tie, as do matches that agree on every slot; the sort
// breaks those ties with compareViolations.
type keyer struct {
	rank  []uint64 // per name: its rank, scaled past the ID slots
	place []uint64 // per ID slot: its place value
}

// newKeyer keys violations whose rule names are among names (one name may
// appear more than once; every copy gets the same rank) and whose IDs are
// at most maxID as uint32.
func newKeyer(names []string, maxID uint32) *keyer {
	distinct := slices.Compact(slices.Sorted(slices.Values(names)))
	ranks, radix, scale := uint64(len(distinct)), uint64(maxID)+1, uint64(1)
	k := &keyer{rank: make([]uint64, len(names))}
	if ranks > 0 && radix > 1 && maxID <= math.MaxInt32 { // IDs all 0, or a negative one (a large uint32): key on names alone
		for ; scale <= math.MaxUint64/ranks/radix; scale *= radix {
			k.place = append(k.place, scale)
		}
		slices.Reverse(k.place)
	}
	for h, name := range names {
		r, _ := slices.BinarySearch(distinct, name)
		k.rank[h] = uint64(r) * scale
	}
	return k
}

// key is the prefix key of a violation with rule name h and match m.
func (k *keyer) key(h int, m core.Match) uint64 {
	key := k.rank[h]
	for s := 0; s < len(m) && s < len(k.place); s++ {
		key += uint64(m[s]) * k.place[s]
	}
	return key
}

// compareViolations is the canonical order: rule name, then match IDs.
func compareViolations(a, b Violation) int {
	return cmp.Or(strings.Compare(a.Rule, b.Rule), slices.Compare(a.Match, b.Match))
}

// sortKeyed sorts ks, keyed by prefix key, into the canonical order; at
// looks a violation up.
func sortKeyed(ks []keyed, at func(keyed) Violation) {
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return compareViolations(at(a), at(b))
	})
}

// Keys returns the violations' keys sorted as strings, for set
// comparison; that is not the report's order (Sort).
func (r Report) Keys() []string {
	ks := make([]string, len(r))
	for i, v := range r {
		ks[i] = v.Key()
	}
	sort.Strings(ks)
	return ks
}

// Equal reports whether two reports describe the same violation set.
func (r Report) Equal(other Report) bool { return slices.Equal(r.Keys(), other.Keys()) }
