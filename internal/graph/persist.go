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
// per-node sort invariants, classes consistent with labels, a symbol table
// that starts with the wildcard and holds no duplicate — because every
// violated invariant is a latent panic (or silent mismatch) in the match
// engine's unchecked indexing. Images from untrusted bytes must never be
// adopted unvalidated. The checks are O(|V|+|E|) integer scans, far below
// a freeze, and one parallel pass (see Flat.validate); the symbol table
// retains f.Names.
//
// The snapshot's source graph (Snapshot.Graph) is born sealed (see Graph):
// it has no maps, and every read answers from the flat arrays. The graph's
// snapshot cache is pre-seeded, so Freeze returns this snapshot without
// building anything (SnapshotBuilds stays 0). Every write to it, through
// an Overlay or a direct AddNode, AddEdge or SetAttr, patches the live
// overlay's view, which becomes the graph's read source; the next Freeze
// flattens that view into fresh arrays. The graph never moves back onto
// the heap (Clone makes a heap copy), and nothing ever writes through the
// adopted arrays.
func AdoptFlat(f Flat) (*Snapshot, error) { return AdoptFlatBeside(f, nil) }

// AdoptFlatBeside is AdoptFlat with more checks run in the same parallel
// pass as the validation (package store passes its section checksums). A
// failing beside task outranks any validation error: the first in slice
// order is returned as it is.
func AdoptFlatBeside(f Flat, beside []func() error) (*Snapshot, error) {
	syms, heavy, err := f.validate(workersFor(len(f.Labels)+len(f.Out)), beside)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		heavy:     heavy,
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
	g := &Graph{snap: s}
	g.sealed.Store(s)
	s.g = g
	return s, nil
}

// validate runs the beside tasks, checks every invariant the engines'
// unchecked indexing relies on, and builds the symbol table. Error
// messages name the failing section; package store wraps them into its
// typed corruption error.
//
// The table-shape checks (counts, offsets, arena sizes) run first and
// serially. The rest is one pass (see drain) on the caller and workers-1
// helpers (AdoptFlat passes workersFor(|V|+|E|), as a snapshot build
// does): the caller indexes the symbol table, one task whose slot writes
// no other worker shares, while the helpers take short tasks from a
// shared counter —
// degree-balanced node ranges (labels, then out and in adjacency, then
// attribute tuples), ranges of label classes, and the beside tasks — and
// the caller joins them when its index is built. The error reported is
// the first beside task's, else the one the serial order would find first
// — the earliest check kind failing anywhere, in its lowest node or class
// range, then the symbol table's — so it never depends on the worker
// count or on scheduling. A node range that passes also collects its
// heavy nodes (see Snapshot.Heavy) off the offsets it just read.
func (f Flat) validate(workers int, beside []func() error) (*Symbols, []NodeID, error) {
	besideErrs := make([]error, len(beside))
	runBeside := func(i int) { besideErrs[i] = beside[i]() }
	first := func(err error) error {
		for _, e := range besideErrs {
			if e != nil {
				return e
			}
		}
		return err
	}
	if err := f.checkShape(); err != nil {
		for i := range beside {
			runBeside(i)
		}
		return nil, nil, first(err)
	}
	split := workers * tasksPerWorker
	nodes := shardByOffsets(split, f.OutOff, f.InOff, f.AttrOff)
	classes := shardByOffsets(split, f.ClassOff)
	// errs holds each node range's first failure, then each class range's.
	errs := make([]checkErr, len(nodes)+len(classes))
	heavy := make([]heavyTop, len(nodes))
	var syms *Symbols
	var symErr error
	drain(workers, 1+len(errs)+len(beside), func(task int) {
		switch i := task - 1; {
		case task == 0:
			syms, symErr = adoptSymbols(f.Names)
		case i < len(nodes):
			if errs[i] = f.checkNodes(nodes[i].lo, nodes[i].hi); errs[i].err == nil {
				heavy[i].scan(f.OutOff, f.InOff, nodes[i].lo, nodes[i].hi)
			}
		case i < len(errs):
			lo, hi := classes[i-len(nodes)].lo, classes[i-len(nodes)].hi
			errs[i] = checkErr{kindClasses, f.checkClasses(lo, hi)}
		default:
			runBeside(i - len(errs))
		}
	})
	var firstErr checkErr
	for _, e := range errs {
		if e.err != nil && (firstErr.err == nil || e.kind < firstErr.kind) {
			firstErr = e
		}
	}
	if err := first(firstErr.err); err != nil {
		return nil, nil, err
	}
	var top heavyTop
	for _, part := range heavy {
		for _, h := range part {
			top.offer(h.v, h.deg)
		}
	}
	return syms, top.nodes(), symErr
}

// checkShape validates the sizes and offset arrays every per-node check
// indexes through.
func (f Flat) checkShape() error {
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
	return nil
}

// checkErr is a shard's first failure and the kind of check that found
// it. Kinds are numbered in the serial scan's order.
type checkErr struct {
	kind int
	err  error
}

const (
	kindLabels = iota
	kindOut
	kindIn
	kindAttrs
	kindClasses
)

// checkNodes runs the per-node checks over nodes [lo, hi), stopping at the
// first failure: a later kind of check in this range can never be the one
// reported.
func (f Flat) checkNodes(lo, hi int) checkErr {
	nsyms := len(f.Names)
	for v := lo; v < hi; v++ {
		if l := f.Labels[v]; l < 0 || int(l) >= nsyms {
			return checkErr{kindLabels, fmt.Errorf("graph: node %d label code %d out of range [0,%d)", v, l, nsyms)}
		}
	}
	// Adjacency: endpoints and labels in range, each node's range
	// (Label, Label(To), To)-sorted — the binary searches (OutWithNbr,
	// HasEdge) and the matcher's sorted-range intersection assume it.
	if err := checkAdjacency("out", f.OutOff, f.Out, f.Labels, nsyms, lo, hi); err != nil {
		return checkErr{kindOut, err}
	}
	if err := checkAdjacency("in", f.InOff, f.In, f.Labels, nsyms, lo, hi); err != nil {
		return checkErr{kindIn, err}
	}
	// Attribute tuples: codes in range, names strictly increasing per node
	// (a tuple is a map image — duplicates would make AttrSym ambiguous).
	for v := lo; v < hi; v++ {
		ps := f.AttrPairs[f.AttrOff[v]:f.AttrOff[v+1]]
		for i, p := range ps {
			if p.Name < 0 || int(p.Name) >= nsyms || p.Val < 0 || int(p.Val) >= nsyms {
				return checkErr{kindAttrs, fmt.Errorf("graph: node %d attr pair %d codes (%d,%d) out of range [0,%d)", v, i, p.Name, p.Val, nsyms)}
			}
			if i > 0 && ps[i-1].Name >= p.Name {
				return checkErr{kindAttrs, fmt.Errorf("graph: node %d attr tuple not strictly sorted by name at %d", v, i)}
			}
		}
	}
	return checkErr{}
}

// checkClasses validates label classes [lo, hi): each class ascending and
// containing exactly the nodes carrying its label. Together with the
// offset total == |V| this forces every node into exactly its own class.
func (f Flat) checkClasses(lo, hi int) error {
	n := len(f.Labels)
	for l := lo; l < hi; l++ {
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

// checkAdjacency validates one direction's arena over nodes [lo, hi):
// codes in range and each node's range in compareCSR order (non-strict:
// duplicate triples mirror the mutable graph's multi-edge behavior). The
// order compares neighbour label codes as values, so it needs no range
// check of labels outside [lo, hi).
func checkAdjacency(name string, off []int32, es []CSREdge, labels []Sym, nsyms, lo, hi int) error {
	n := len(labels)
	for v := lo; v < hi; v++ {
		var prev CSREdge
		var prevNbr Sym
		for i, e := range es[off[v]:off[v+1]] {
			if e.To < 0 || int(e.To) >= n {
				return fmt.Errorf("graph: %s edge of node %d targets %d, out of range [0,%d)", name, v, e.To, n)
			}
			if e.Label < 0 || int(e.Label) >= nsyms {
				return fmt.Errorf("graph: %s edge of node %d label code %d out of range [0,%d)", name, v, e.Label, nsyms)
			}
			nbr := labels[e.To]
			if i > 0 && compareCSR(prev, prevNbr, e, nbr) > 0 {
				return fmt.Errorf("graph: %s adjacency of node %d not (label, neighbour label, to)-sorted at %d", name, v, i)
			}
			prev, prevNbr = e, nbr
		}
	}
	return nil
}
