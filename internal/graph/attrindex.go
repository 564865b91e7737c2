package graph

import "sort"

// attrIndex is the mutable counterpart of the Snapshot's interned
// attribute arena: per-node (Name, Val) pairs sorted by Name, maintained
// incrementally as the graph mutates. An Overlay's patch holds one
// (borrowing the base snapshot's arena copy-on-write, see
// newAttrIndexOver) and its view reads the pairs (Snapshot.AttrPairs), so
// literal evaluation (core.LiteralProgram) runs on integer compares on the
// incremental path too, without re-freezing the whole graph per update
// batch.
//
// Unlike a frozen Snapshot's table, an attrIndex's Symbols table keeps
// growing: updates intern new values on the fly. Interned codes are stable, so
// literal programs compiled against the table stay valid as it grows —
// with one caveat: a constant absent at compile time would lower to NoSym
// and wrongly stay "never matches" after the value later appears. Callers
// therefore intern every rule constant up front (GFD.InternLiterals)
// before compiling.
//
// attrIndex is not safe for concurrent mutation; the incremental detector
// serializes updates by construction.
type attrIndex struct {
	syms  *Symbols
	pairs [][]AttrPair // indexed by NodeID, each sorted by Name

	// borrowed marks tuples that alias the frozen snapshot's arena: those
	// are copied before the first write so the shared snapshot stays
	// immutable.
	borrowed []bool
}

// newAttrIndexOver builds an index over a frozen snapshot's interned
// attribute arena without re-interning anything: every tuple is borrowed
// as a capacity-capped subslice of the arena and copied only when first
// written (SetAttr), and the snapshot's own symbol table is adopted — the
// Overlay's one-namespace requirement. O(|V|) slice headers, no tuple
// copying.
func newAttrIndexOver(s *Snapshot) *attrIndex {
	n := s.NumNodes()
	ix := &attrIndex{
		syms:     s.syms,
		pairs:    make([][]AttrPair, n),
		borrowed: make([]bool, n),
	}
	for v := 0; v < n; v++ {
		lo, hi := s.attrOff[v], s.attrOff[v+1]
		if lo == hi {
			continue
		}
		ix.pairs[v] = s.attrPairs[lo:hi:hi]
		ix.borrowed[v] = true
	}
	return ix
}

func (ix *attrIndex) internTuple(a Attrs) []AttrPair {
	if len(a) == 0 {
		return nil
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ps := make([]AttrPair, 0, len(keys))
	for _, k := range keys {
		ps = append(ps, AttrPair{Name: ix.syms.Intern(k), Val: ix.syms.Intern(a[k])})
	}
	sortAttrPairs(ps)
	return ps
}

// AddNode appends the tuple of a freshly inserted node (call in the same
// order nodes are added to the graph; a nil attrs is allowed).
func (ix *attrIndex) AddNode(attrs Attrs) {
	ix.pairs = append(ix.pairs, ix.internTuple(attrs))
}

// SetAttr upserts attribute name = val on node v, interning both. A
// borrowed tuple is copied before the write (copy-on-write over the
// snapshot arena).
func (ix *attrIndex) SetAttr(v NodeID, name, val string) {
	n, vl := ix.syms.Intern(name), ix.syms.Intern(val)
	if int(v) < len(ix.borrowed) && ix.borrowed[v] {
		ix.pairs[v] = append([]AttrPair(nil), ix.pairs[v]...)
		ix.borrowed[v] = false
	}
	ps := ix.pairs[v]
	pos := sort.Search(len(ps), func(i int) bool { return ps[i].Name >= n })
	if pos < len(ps) && ps[pos].Name == n {
		ps[pos].Val = vl
		return
	}
	ps = append(ps, AttrPair{})
	copy(ps[pos+1:], ps[pos:])
	ps[pos] = AttrPair{Name: n, Val: vl}
	ix.pairs[v] = ps
}
