// Package stats provides the statistics substrate the workload estimator
// relies on: equi-depth histograms over candidate sets (used by bPar to
// derive m-balanced range partitions, Section 6.1).
package stats

import (
	"slices"
	"strings"

	"gfd/internal/graph"
)

// Range is a half-open slice [Lo, Hi) of a sorted candidate list. Workload
// estimation messages carry ranges rather than explicit candidate lists.
type Range struct {
	Lo, Hi int
}

// Len returns the number of candidates covered by the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// EquiDepth partitions n sorted candidates into at most m ranges of nearly
// equal cardinality (an m-balanced partition in the paper's terminology).
// It returns fewer than m ranges when n < m.
func EquiDepth(n, m int) []Range {
	if n <= 0 || m <= 0 {
		return nil
	}
	if m > n {
		m = n
	}
	out := make([]Range, 0, m)
	base, rem := n/m, n%m
	lo := 0
	for i := 0; i < m; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Range{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// EquiDepthByValue partitions candidates into at most m ranges balanced by
// cardinality after sorting by the given attribute value (candidates
// missing the attribute first, then value string order, then ID). This
// mirrors the paper's equi-depth histogram over a selected attribute of
// C(µ(z)); the returned order is the sorted candidate list the ranges index
// into.
//
// Values are read once per candidate as interned codes off the topology —
// the view candidates, block sizes and detection read too — and only the
// distinct ones are ranked by name, so the sort itself runs over flat
// (rank, ID) integer keys: no lock, hash or string inside a comparator.
func EquiDepthByValue(topo graph.Topology, candidates []graph.NodeID, attr string, m int) ([]graph.NodeID, []Range) {
	syms := topo.Syms()
	name := syms.Lookup(attr)
	vals := make([]graph.Sym, len(candidates))
	for i, v := range candidates {
		vals[i], _ = topo.AttrSym(v, name) // NoSym when v lacks the attribute
	}
	distinct := slices.Clone(vals)
	slices.Sort(distinct)
	distinct = slices.DeleteFunc(slices.Compact(distinct), func(c graph.Sym) bool { return c == graph.NoSym })
	type named struct {
		name string
		at   int // index into distinct
	}
	byName := make([]named, len(distinct))
	for i, c := range distinct {
		byName[i] = named{syms.Name(c), i}
	}
	slices.SortFunc(byName, func(a, b named) int { return strings.Compare(a.name, b.name) })
	rank := make([]uint64, len(distinct)) // 1-based; 0 is the missing attribute
	for r, e := range byName {
		rank[e.at] = uint64(r) + 1
	}
	keys := make([]uint64, len(candidates))
	for i, v := range candidates {
		keys[i] = uint64(uint32(v))
		if at, found := slices.BinarySearch(distinct, vals[i]); found {
			keys[i] |= rank[at] << 32
		}
	}
	slices.Sort(keys)
	sorted := make([]graph.NodeID, len(keys))
	for i, k := range keys {
		sorted[i] = graph.NodeID(uint32(k))
	}
	return sorted, EquiDepth(len(sorted), m)
}
