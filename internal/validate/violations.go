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

// Sort orders the report canonically: ascending Key() string order, by one
// sort on integer prefix keys (keyer).
func (r Report) Sort() {
	var heads headTable
	var maxID uint32
	ks := make([]keyed, len(r))
	for i, v := range r {
		ks[i] = keyed{key: uint64(heads.of(v)), i: uint32(i)}
		for _, id := range v.Match {
			maxID = max(maxID, uint32(id))
		}
	}
	kr := newKeyer(heads.heads, maxID)
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

// head is what a violation's key starts with: the rule name, then "," when
// the match is non-empty.
type head struct {
	rule string
	args bool
}

// headTable interns the heads of a run of violations. Emitters mostly
// repeat the last head, so that is checked before the index.
type headTable struct {
	heads []head
	last  int
	index map[head]int
}

func (t *headTable) of(v Violation) int {
	h := head{v.Rule, len(v.Match) > 0}
	if t.last < len(t.heads) && t.heads[t.last] == h {
		return t.last
	}
	i, ok := t.index[h]
	if !ok {
		if t.index == nil {
			t.index = make(map[head]int)
		}
		i, t.index[h], t.heads = len(t.heads), len(t.heads), append(t.heads, h)
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
// Key() order: key(a) < key(b) implies a.Key() < b.Key(). The key is the
// rank of the violation's head followed, in mixed radix, by as many match
// IDs as fit. An ID is coded as its decimal digits left-aligned to the
// width D of the largest ID, then its digit count: "1" < "10" < "12" < "2"
// as text, and so as codes; 0 ends the match, so a shorter match sorts
// first. Heads that are prefixes of one another ("r" beside "r!,", "r,"
// beside "r,1,") share a rank with no IDs in it, since their order depends
// on what follows them; keyOrder breaks those ties on the rendered keys.
type keyer struct {
	rank   []uint64 // per head: its rank, scaled past the ID slots
	ids    []bool   // per head: it alone holds its rank, so IDs follow
	digits uint64   // D
	place  []uint64 // per ID slot: its place value
}

var pow10 = [...]uint64{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

func newKeyer(heads []head, maxID uint32) *keyer {
	k := &keyer{rank: make([]uint64, len(heads)), ids: make([]bool, len(heads))}
	strs := make([]string, len(heads))
	order := make([]int, len(heads))
	for i, h := range heads {
		strs[i], order[i] = h.rule, i
		if h.args {
			strs[i] += ","
		}
	}
	slices.SortFunc(order, func(a, b int) int { return strings.Compare(strs[a], strs[b]) })
	var ranks uint64
	for lo := 0; lo < len(order); ranks++ {
		root, one, hi := strs[order[lo]], true, lo+1
		for ; hi < len(order) && strings.HasPrefix(strs[order[hi]], root); hi++ {
			one = one && strs[order[hi]] == root
		}
		for _, h := range order[lo:hi] {
			k.rank[h], k.ids[h] = ranks, one
		}
		lo = hi
	}
	scale := uint64(1)
	if ranks > 0 && maxID <= math.MaxInt32 { // a negative ID renders with a '-': key on heads alone
		k.digits = uint64(digits(uint64(maxID)))
		radix := pow10[k.digits]*k.digits + 1 // codes per slot
		for ; scale <= math.MaxUint64/ranks/radix; scale *= radix {
			k.place = append(k.place, scale)
		}
		slices.Reverse(k.place)
	}
	for h := range k.rank {
		k.rank[h] *= scale
	}
	return k
}

// digits is the decimal digit count of x.
func digits(x uint64) int {
	n := 1
	for n < len(pow10)-1 && x >= pow10[n] {
		n++
	}
	return n
}

// key is the prefix key of a violation with head h and match m.
func (k *keyer) key(h int, m core.Match) uint64 {
	key := k.rank[h]
	if k.ids[h] {
		for s := 0; s < len(m) && s < len(k.place); s++ {
			id := uint64(m[s])
			n := uint64(digits(id))
			key += (id*pow10[k.digits-n]*k.digits + n) * k.place[s]
		}
	}
	return key
}

// sortKeyed sorts ks, keyed by prefix key, into Key() order; at looks a
// violation up.
func sortKeyed(ks []keyed, at func(keyed) Violation) {
	var o keyOrder
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := cmp.Compare(a.key, b.key); c != 0 {
			return c
		}
		return o.tie(at(a), at(b))
	})
}

// keyOrder breaks ties between equal prefix keys on the rendered keys,
// into two scratch buffers.
type keyOrder struct{ a, b []byte }

func (o *keyOrder) tie(a, b Violation) int {
	o.a, o.b = a.appendKey(o.a[:0]), b.appendKey(o.b[:0])
	return bytes.Compare(o.a, o.b)
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
func (r Report) Equal(other Report) bool { return slices.Equal(r.Keys(), other.Keys()) }
