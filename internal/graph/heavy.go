package graph

import (
	"slices"
	"sort"
)

// The heavy-node list: the heavyListLen nodes of greatest degree (in +
// out, at least heavyMin), recorded on every frozen snapshot by whatever
// pass already reads each node's offsets — the freeze, the compaction, the
// validation of an adopted image — so a planner finds its skewed pivots in
// O(list), never in a pass over a label class.
const (
	heavyListLen = 64
	heavyMin     = 8
)

// Heavy returns the heavy-node list, ascending: the nodes of greatest
// degree, at most 64 of them and none of degree below 8, ties to the lower
// ID. An Overlay's view re-ranks its base list with every node its patch
// touched, at the degrees the view reads. Shared; read-only on a frozen
// snapshot, fresh on a view.
func (s *Snapshot) Heavy() []NodeID {
	if s.patch == nil {
		return s.heavy
	}
	var top heavyTop
	for _, v := range s.heavy {
		top.offer(v, s.OutDegree(v)+s.InDegree(v))
	}
	for _, v := range s.patch.touched {
		if !slices.Contains(s.heavy, v) {
			top.offer(v, s.OutDegree(v)+s.InDegree(v))
		}
	}
	return top.nodes()
}

// recordHeavy fills the heavy-node list of a frozen snapshot from its
// offsets.
func (s *Snapshot) recordHeavy() {
	var top heavyTop
	top.scan(s.outOff, s.inOff, 0, len(s.labels))
	s.heavy = top.nodes()
}

// heavyNode is a node and its degree.
type heavyNode struct {
	v   NodeID
	deg int
}

// heavyTop keeps the heaviest nodes offered to it, heaviest first.
type heavyTop []heavyNode

// before reports whether a ranks ahead of b: greater degree, then lower ID.
func (a heavyNode) before(b heavyNode) bool {
	return a.deg > b.deg || a.deg == b.deg && a.v < b.v
}

// offer considers v of degree deg for the list.
func (t *heavyTop) offer(v NodeID, deg int) {
	h, top := heavyNode{v, deg}, *t
	if deg < heavyMin || len(top) == heavyListLen && !h.before(top[len(top)-1]) {
		return
	}
	i := sort.Search(len(top), func(i int) bool { return h.before(top[i]) })
	if len(top) < heavyListLen {
		top = append(top, heavyNode{})
	}
	copy(top[i+1:], top[i:len(top)-1])
	top[i] = h
	*t = top
}

// scan offers the nodes of [lo, hi) at their degrees under the offsets.
// IDs ascend, so once the list is full a node enters only with a degree
// above the last kept one's: below that floor it is skipped unoffered.
func (t *heavyTop) scan(outOff, inOff []int32, lo, hi int) {
	floor := heavyMin
	for v := lo; v < hi; v++ {
		if deg := int(outOff[v+1] - outOff[v] + inOff[v+1] - inOff[v]); deg >= floor {
			t.offer(NodeID(v), deg)
			if top := *t; len(top) == heavyListLen {
				floor = top[len(top)-1].deg + 1
			}
		}
	}
}

// nodes returns the kept nodes in ascending ID order.
func (t heavyTop) nodes() []NodeID {
	out := make([]NodeID, len(t))
	for i, h := range t {
		out[i] = h.v
	}
	slices.Sort(out)
	return out
}
