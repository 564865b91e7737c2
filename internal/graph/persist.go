package graph

import (
	"errors"
	"fmt"
	"slices"
)

// Flat is the serializable image of a Snapshot: every backing array exposed
// as-is, plus the symbol table in code order. It exists for package store —
// the arrays are already flat and offset-based, so persisting a snapshot is
// a section-per-field dump and loading one is AdoptFlat over (possibly
// memory-mapped) views. The slices are shared with the snapshot; treat
// them as read-only.
type Flat struct {
	Names     []string // symbol table, index == Sym code (Names[0] is the wildcard)
	Labels    []Sym    // node label codes, indexed by NodeID; len |V|
	AttrOff   []int32  // len |V|+1, offsets into AttrPairs
	AttrPairs []AttrPair
	OutOff    []int32 // len |V|+1, offsets into Out
	Out       []CSREdge
	InOff     []int32 // len |V|+1, offsets into In
	In        []CSREdge
	ClassOff  []int32  // len len(Names)+1, offsets into Classes
	Classes   []NodeID // nodes grouped by label code, ascending within a class
}

// ErrPatchedView reports an attempt to persist an Overlay's patched view:
// its arrays are the base's, so writing them would silently drop every
// update since the freeze. Compact first: Freeze of the graph flattens
// the view into a frozen snapshot.
var ErrPatchedView = errors.New("graph: cannot persist a patched overlay view")

// Flat returns the snapshot's flat-array image for serialization. The
// arrays are the snapshot's own backing storage (no copies) — the Names
// slice is the only allocation, plus a padded copy of the class offsets
// when the table has grown since the freeze (an overlay or a compaction
// shares the live table, and names interned later own empty classes). A
// patched view has no such image and returns ErrPatchedView.
func (s *Snapshot) Flat() (Flat, error) {
	if s.patch != nil {
		return Flat{}, ErrPatchedView
	}
	names := s.syms.Names()
	classOff := s.classOff
	if n := len(names) + 1; len(classOff) < n {
		classOff = slices.Clone(classOff)
		for len(classOff) < n {
			classOff = append(classOff, classOff[len(classOff)-1])
		}
	}
	return Flat{
		Names:     names,
		Labels:    s.labels,
		AttrOff:   s.attrOff,
		AttrPairs: s.attrPairs,
		OutOff:    s.outOff,
		Out:       s.out,
		InOff:     s.inOff,
		In:        s.in,
		ClassOff:  classOff,
		Classes:   s.classes,
	}, nil
}

// AdoptFlat reconstructs a Snapshot around a Flat image without copying the
// arrays: the returned snapshot's backing storage IS the given slices, so a
// caller mapping them from a read-only file gets a zero-copy view. The
// image is validated first — offsets monotone and bounded, codes in range,
// per-node sort invariants, classes consistent with labels — because every
// violated invariant is a latent panic (or silent mismatch) in the match
// engine's unchecked indexing. Images from untrusted bytes must never be
// adopted unvalidated; the checks here are O(|V|+|E|) integer scans, far
// below a freeze.
//
// The snapshot's source graph (Snapshot.Graph) is a hollow *Graph that
// reads through the snapshot: reads that the snapshot can answer
// (NumNodes, NumEdges, Label, Attr, degrees) stay on the flat arrays. The
// graph's snapshot cache is pre-seeded, so Freeze returns this snapshot
// without building anything (SnapshotBuilds stays 0). Updates through an
// Overlay over it patch the overlay's view and never thaw the graph: the
// view becomes the graph's read source, and the next Freeze flattens it
// into fresh arrays. Only a direct mutation, or a read needing the
// slice-of-maps representation (Clone, NodeAttrs, Out), thaws the graph
// onto the heap. Nothing ever writes through the adopted arrays.
func AdoptFlat(f Flat) (*Snapshot, error) {
	if err := f.validate(); err != nil {
		return nil, err
	}
	syms, err := adoptSymbols(f.Names)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		syms:      syms,
		labels:    f.Labels,
		attrOff:   f.AttrOff,
		attrPairs: f.AttrPairs,
		outOff:    f.OutOff,
		out:       f.Out,
		inOff:     f.InOff,
		in:        f.In,
		classOff:  f.ClassOff,
		classes:   f.Classes,
	}
	g := &Graph{edges: len(f.Out)}
	g.snap, g.snapVersion = s, 0
	g.hollow.Store(s)
	s.g = g
	return s, nil
}

// validate checks every invariant the engines' unchecked indexing relies
// on. Error messages name the failing section; package store wraps them
// into its typed corruption error.
func (f Flat) validate() error {
	n := len(f.Labels)
	nsyms := len(f.Names)
	if nsyms == 0 {
		return fmt.Errorf("graph: empty symbol table")
	}
	if err := checkOffsets("attr", f.AttrOff, n, len(f.AttrPairs)); err != nil {
		return err
	}
	if err := checkOffsets("out", f.OutOff, n, len(f.Out)); err != nil {
		return err
	}
	if err := checkOffsets("in", f.InOff, n, len(f.In)); err != nil {
		return err
	}
	if err := checkOffsets("class", f.ClassOff, nsyms, len(f.Classes)); err != nil {
		return err
	}
	if len(f.Out) != len(f.In) {
		return fmt.Errorf("graph: out/in arena size mismatch (%d vs %d)", len(f.Out), len(f.In))
	}
	if len(f.Classes) != n {
		return fmt.Errorf("graph: class arena holds %d nodes, want |V|=%d", len(f.Classes), n)
	}
	for v, l := range f.Labels {
		if l < 0 || int(l) >= nsyms {
			return fmt.Errorf("graph: node %d label code %d out of range [0,%d)", v, l, nsyms)
		}
	}
	// Adjacency: endpoints and labels in range, each node's range
	// (Label, Label(To), To)-sorted — the binary searches (OutWithNbr,
	// HasEdge) and the matcher's sorted-range intersection assume it.
	if err := checkAdjacency("out", f.OutOff, f.Out, f.Labels, nsyms); err != nil {
		return err
	}
	if err := checkAdjacency("in", f.InOff, f.In, f.Labels, nsyms); err != nil {
		return err
	}
	// Attribute tuples: codes in range, names strictly increasing per node
	// (a tuple is a map image — duplicates would make AttrSym ambiguous).
	for v := 0; v < n; v++ {
		ps := f.AttrPairs[f.AttrOff[v]:f.AttrOff[v+1]]
		for i, p := range ps {
			if p.Name < 0 || int(p.Name) >= nsyms || p.Val < 0 || int(p.Val) >= nsyms {
				return fmt.Errorf("graph: node %d attr pair %d codes (%d,%d) out of range [0,%d)", v, i, p.Name, p.Val, nsyms)
			}
			if i > 0 && ps[i-1].Name >= p.Name {
				return fmt.Errorf("graph: node %d attr tuple not strictly sorted by name at %d", v, i)
			}
		}
	}
	// Label classes: each class ascending and containing exactly the nodes
	// carrying its label. Together with the offset total == |V| this forces
	// every node into exactly its own class.
	for l := 0; l < nsyms; l++ {
		class := f.Classes[f.ClassOff[l]:f.ClassOff[l+1]]
		for i, v := range class {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("graph: class %d member %d node id %d out of range [0,%d)", l, i, v, n)
			}
			if f.Labels[v] != Sym(l) {
				return fmt.Errorf("graph: class %d holds node %d labeled %d", l, v, f.Labels[v])
			}
			if i > 0 && class[i-1] >= v {
				return fmt.Errorf("graph: class %d not strictly ascending at %d", l, i)
			}
		}
	}
	return nil
}

// checkOffsets validates one CSR offset array: length count+1, starting at
// 0, monotone non-decreasing, ending exactly at the arena length.
func checkOffsets(name string, off []int32, count, arena int) error {
	if len(off) != count+1 {
		return fmt.Errorf("graph: %s offsets length %d, want %d", name, len(off), count+1)
	}
	if count >= 0 && len(off) > 0 && off[0] != 0 {
		return fmt.Errorf("graph: %s offsets start at %d, want 0", name, off[0])
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: %s offsets decrease at %d (%d -> %d)", name, i, off[i-1], off[i])
		}
	}
	if int(off[len(off)-1]) != arena {
		return fmt.Errorf("graph: %s offsets end at %d, arena holds %d", name, off[len(off)-1], arena)
	}
	return nil
}

// checkAdjacency validates one direction's arena: codes in range and each
// node's range in compareCSR order, reading neighbour labels from the
// already validated labels (non-strict: duplicate triples mirror the
// mutable graph's multi-edge behavior).
func checkAdjacency(name string, off []int32, es []CSREdge, labels []Sym, nsyms int) error {
	n := len(labels)
	for v := 0; v < n; v++ {
		r := es[off[v]:off[v+1]]
		for i, e := range r {
			if e.To < 0 || int(e.To) >= n {
				return fmt.Errorf("graph: %s edge of node %d targets %d, out of range [0,%d)", name, v, e.To, n)
			}
			if e.Label < 0 || int(e.Label) >= nsyms {
				return fmt.Errorf("graph: %s edge of node %d label code %d out of range [0,%d)", name, v, e.Label, nsyms)
			}
			if i > 0 && compareCSR(r[i-1], labels[r[i-1].To], e, labels[e.To]) > 0 {
				return fmt.Errorf("graph: %s adjacency of node %d not (label, neighbour label, to)-sorted at %d", name, v, i)
			}
		}
	}
	return nil
}

// ---- hollow graphs --------------------------------------------------------

// pending returns the graph's read source while it is hollow, nil once
// its maps are materialized — the guard of every read fast path that can
// answer from a snapshot without paying the thaw.
func (g *Graph) pending() *Snapshot { return g.hollow.Load() }

// ensureThawed materializes the maps of a hollow graph from its current
// read source. Ordinary graphs return immediately. Safe for concurrent
// readers (two concurrent thaw-needing reads share one build); mutation
// concurrent with anything is as unsafe as it always was. A thaw changes
// no content and no version: an overlay over the graph stays synced, and
// its next write drops the maps again.
func (g *Graph) ensureThawed() {
	if g.hollow.Load() == nil {
		return
	}
	g.thawMu.Lock()
	defer g.thawMu.Unlock()
	if s := g.hollow.Load(); s != nil {
		g.thawFromSnapshot(s)
		g.hollow.Store(nil)
	}
}

// readThrough makes view the graph's read source and bumps the version:
// the Overlay's write hook, in place of mutating the graph. The first
// write of an overlay drops the graph's maps (a heap graph's builder form;
// an adopted graph has none), so nothing keeps a second copy of the data
// in step with the view.
func (g *Graph) readThrough(view *Snapshot) uint64 {
	if g.hollow.Load() != view {
		g.labels, g.attrs, g.out, g.in, g.byLabel = nil, nil, nil, nil, nil
		g.hollow.Store(view)
	}
	g.version++
	return g.version
}

// thawFromSnapshot rebuilds the slice-of-maps representation from the
// graph's read source (an adopted or flattened snapshot, or an overlay's
// patched view). It does not bump the version: thawing is a pure
// materialization, so prepared sessions over the snapshot stay valid and
// no re-freeze is triggered until an actual mutation follows. Adjacency
// comes back in CSR (label, neighbor label, neighbor) order rather than
// original insertion order — equivalent under the engines, which sort at
// freeze time anyway.
func (g *Graph) thawFromSnapshot(s *Snapshot) {
	syms := s.Syms()
	n := s.NumNodes()
	g.labels = make([]string, n)
	g.attrs = make([]Attrs, n)
	g.out = make([][]HalfEdge, n)
	g.in = make([][]HalfEdge, n)
	g.byLabel = make(map[string][]NodeID)
	for v := 0; v < n; v++ {
		id := NodeID(v)
		label := syms.Name(s.Label(id))
		g.labels[v] = label
		g.byLabel[label] = append(g.byLabel[label], id)
		if ps := s.AttrPairs(id); len(ps) > 0 {
			m := make(Attrs, len(ps))
			for _, p := range ps {
				m[syms.Name(p.Name)] = syms.Name(p.Val)
			}
			g.attrs[v] = m
		}
		if es := s.Out(id); len(es) > 0 {
			out := make([]HalfEdge, len(es))
			for i, e := range es {
				out[i] = HalfEdge{To: e.To, Label: syms.Name(e.Label)}
			}
			g.out[v] = out
		}
		if es := s.In(id); len(es) > 0 {
			in := make([]HalfEdge, len(es))
			for i, e := range es {
				in[i] = HalfEdge{To: e.To, Label: syms.Name(e.Label)}
			}
			g.in[v] = in
		}
	}
	g.edges = s.NumEdges()
}
