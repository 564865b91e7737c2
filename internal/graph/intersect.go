package graph

// Sorted-range intersection primitives for the worst-case-optimal join step
// of the matcher (Leapfrog Triejoin style). Frozen and patched snapshots
// alike keep every node's adjacency in compareCSR order (key, then To), so
// a run with a concrete edge label and a concrete neighbour label
// (OutWithNbr/InWithNbr with l, nl != WildcardSym) is sorted ascending by
// To — exactly the shape a multiway sorted intersection wants. A run with
// either label a wildcard spans neighbour-label or edge-label groups and is
// NOT To-sorted; callers must never hand one to IntersectAdjacency.

// MaxIntersectArity is the largest number of adjacency ranges the matcher
// intersects at once. Pattern nodes with more matched neighbors than this
// intersect the first MaxIntersectArity ranges and leave the rest to the
// per-candidate feasibility check — correctness never depends on arity.
const MaxIntersectArity = 8

// SeekGE returns the smallest index i in [from, len(es)] with
// es[i].To >= to, assuming es is sorted ascending by To. It gallops
// (doubling steps) from the starting position before binary-searching the
// final block, so a sequence of seeks over one range is adaptive: total
// cost O(k log(n/k)) for k seeks landing across an n-entry range, far below
// k full binary searches when the seeks advance locally.
func SeekGE(es []CSREdge, from int, to NodeID) int {
	if from >= len(es) || es[from].To >= to {
		return from
	}
	// Invariant: es[i].To < to; es[i+step].To is the probe.
	i, step := from, 1
	for i+step < len(es) && es[i+step].To < to {
		i += step
		step <<= 1
	}
	lo, hi := i+1, i+step
	if hi > len(es) {
		hi = len(es)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if es[mid].To < to {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// IntersectAdjacency appends to dst every NodeID present in all of the
// given adjacency ranges and returns the extended slice, ascending and
// deduplicated (parallel duplicate (from, to, label) triples, which sit
// adjacent in a sorted range, collapse to one emission). Each range must be
// sorted ascending by To — a single (edge label, neighbour label) run of a
// Snapshot's adjacency with both labels concrete; never a range with a
// WildcardSym in either place.
//
// The merge is a round-robin leapfrog: the current candidate is the largest
// head seen so far, and each range in turn gallops (SeekGE) to it, either
// confirming membership or raising the candidate. Cost is proportional to
// the output plus the number of "fence posts" where ranges overtake each
// other — on ranges with little overlap it skips runs of every input,
// where iterate-smallest-and-probe always pays for the whole smallest
// range. Zero allocations for arity <= MaxIntersectArity.
func IntersectAdjacency(dst []NodeID, ranges [][]CSREdge) []NodeID {
	k := len(ranges)
	if k == 0 {
		return dst
	}
	if k == 1 {
		es := ranges[0]
		for i := range es {
			if i > 0 && es[i].To == es[i-1].To {
				continue
			}
			dst = append(dst, es[i].To)
		}
		return dst
	}
	for i := range ranges {
		if len(ranges[i]) == 0 {
			return dst
		}
	}
	var posArr [MaxIntersectArity]int
	pos := posArr[:]
	if k > MaxIntersectArity {
		pos = make([]int, k)
	}
	i := 0
	x := ranges[0][0].To
	matched := 1
	for {
		i++
		if i == k {
			i = 0
		}
		r := ranges[i]
		p := SeekGE(r, pos[i], x)
		if p == len(r) {
			return dst
		}
		pos[i] = p
		if r[p].To != x {
			x = r[p].To
			matched = 1
			continue
		}
		matched++
		if matched < k {
			continue
		}
		dst = append(dst, x)
		// Advance this range past x (collapsing duplicates); the other
		// ranges seek past it on their next turn.
		for p < len(r) && r[p].To == x {
			p++
		}
		if p == len(r) {
			return dst
		}
		pos[i] = p
		x = r[p].To
		matched = 1
	}
}
