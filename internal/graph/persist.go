package graph

import (
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Flat is the serializable image of a Snapshot: every backing array exposed
// as-is, plus the symbol table's three arrays (see Symbols). It exists for
// package store — the arrays are already flat and offset-based, so
// persisting a snapshot is a section-per-field dump and loading one is
// AdoptFlat over (possibly memory-mapped) views. The slices are shared with the snapshot; treat
// them as read-only.
type Flat struct {
	SymBlob    []byte   // symbol names' bytes, in code order
	SymOff     []uint32 // len s+1: code c names SymBlob[SymOff[c]:SymOff[c+1]]; code 0 is the wildcard
	SymDir     []Sym    // len s: every code, in bytewise order of the names
	EdgeLabels []Sym    // edge label codes in rank order, at most MaxEdgeLabels (see LabelKey)
	NodeLabels []Sym    // node label codes in rank order
	Labels     []Sym    // node label codes, indexed by NodeID; len |V|
	AttrOff    []int32  // len |V|+1, offsets into AttrPairs
	AttrPairs  []AttrPair
	OutOff     []int32 // len |V|+1, offsets into Out
	Out        []CSREdge
	InOff      []int32 // len |V|+1, offsets into In
	In         []CSREdge
	ClassOff   []int32  // len s+1, offsets into Classes
	Classes    []NodeID // nodes grouped by label code, ascending within a class
}

// NumSyms returns the number of symbols the image's table holds.
func (f Flat) NumSyms() int { return len(f.SymOff) - 1 }

// ErrPatchedView reports an attempt to persist an Overlay's patched view:
// its arrays are the base's, so writing them would silently drop every
// update since the freeze. Compact first: Freeze of the graph flattens
// the view into a frozen snapshot.
var ErrPatchedView = errors.New("graph: cannot persist a patched overlay view")

// Flat returns the snapshot's flat-array image for serialization. The
// arrays are the snapshot's and its symbol table's own backing storage
// (no copies), except for a padded copy of the class offsets when the
// table has grown since the freeze (an overlay or a compaction shares the
// live table, and names interned later own empty classes). The table's
// directory is built here if it lags the table (see Symbols.image) and
// kept for the next call. A patched view has no such image and returns
// ErrPatchedView.
func (s *Snapshot) Flat() (Flat, error) {
	if s.patch != nil {
		return Flat{}, ErrPatchedView
	}
	blob, off, dir := s.syms.image()
	classOff := s.classOff
	if n := len(off); len(classOff) < n {
		classOff = slices.Clone(classOff)
		for len(classOff) < n {
			classOff = append(classOff, classOff[len(classOff)-1])
		}
	}
	return Flat{
		SymBlob:    blob,
		SymOff:     off,
		SymDir:     dir,
		EdgeLabels: s.edgeLabels,
		NodeLabels: s.nodeLabels,
		Labels:     s.labels,
		AttrOff:    s.attrOff,
		AttrPairs:  s.attrPairs,
		OutOff:     s.outOff,
		Out:        s.out,
		InOff:      s.inOff,
		In:         s.in,
		ClassOff:   classOff,
		Classes:    s.classes,
	}, nil
}

// AdoptFlat reconstructs a Snapshot around a Flat image without copying the
// arrays: the returned snapshot's backing storage IS the given slices, so a
// caller mapping them from a read-only file gets a zero-copy view. The
// image is validated first — offsets monotone and bounded, codes in range,
// rank tables, keys that rank their labels, per-node sort invariants,
// classes consistent with labels, a symbol table
// that starts with the wildcard and whose directory lists its names in
// strictly increasing order — because every violated invariant is a
// latent panic (or silent mismatch) in the match engine's unchecked
// indexing. Images from untrusted bytes must never be adopted
// unvalidated. The checks are O(|V|+|E|+s) sequential scans with no
// hashing, far below a freeze, and one parallel pass (see Flat.validate).
// The symbol table is the one copy: it owns copies of f's three symbol
// arrays (see Symbols).
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
	syms, heavy, rk, err := f.validate(workersFor(len(f.Labels)+len(f.Out)), beside)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{
		ranks:     rk,
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
		held:      new(holders),
	}
	g := &Graph{snap: s}
	g.sealed.Store(s)
	s.g = g
	return s, nil
}

// validate runs the beside tasks, checks every invariant the engines'
// unchecked indexing relies on, and builds the symbol table and ranks. Error
// messages name the failing section; package store wraps them into its
// typed corruption error.
//
// The shape checks (checkShape) and ranks (rankTable) run first and
// serially. The rest is one pass (see drain) on the caller and workers-1
// helpers (AdoptFlat passes workersFor(|V|+|E|), as a snapshot build
// does): the caller copies the symbol table's arrays, one task, while the
// helpers take short tasks from a shared counter — degree-balanced node
// ranges (their offsets, labels, then out and in adjacency, then attribute
// tuples), ranges of label classes, ranges of the symbol directory, and
// the beside tasks — and the caller joins them when its copy is made. The
// error reported is the first beside task's, else the one the serial order
// would find first — the earliest check kind failing anywhere, in its
// lowest node or class range, then the symbol table's, the wildcard before
// the directory's lowest failing range — so it never depends on the worker
// count or on scheduling. A node range that passes also collects its heavy
// nodes (see Snapshot.Heavy) off the offsets it just read.
func (f Flat) validate(workers int, beside []func() error) (*Symbols, []NodeID, ranks, error) {
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
	var rk ranks
	err := f.checkShape()
	if err == nil {
		rk, err = f.rankTable()
	}
	if err != nil {
		for i := range beside {
			runBeside(i)
		}
		return nil, nil, rk, first(err)
	}
	split := workers * tasksPerWorker
	nodes := shardByOffsets(split, f.OutOff, f.InOff, f.AttrOff)
	classes := shardByOffsets(split, f.ClassOff)
	dir := evenShards(split, len(f.SymDir))
	// errs holds each node range's first failure, then each class range's,
	// then each directory range's.
	errs := make([]checkErr, len(nodes)+len(classes)+len(dir))
	heavy := make([]heavyTop, len(nodes))
	var syms *Symbols
	drain(workers, 1+len(errs)+len(beside), func(task int) {
		switch i := task - 1; {
		case task == 0:
			syms = adoptSymbols(f.SymBlob, f.SymOff, f.SymDir)
		case i < len(nodes):
			if errs[i] = f.checkNodes(&rk, nodes[i].lo, nodes[i].hi); errs[i].err == nil {
				heavy[i].scan(f.OutOff, f.InOff, nodes[i].lo, nodes[i].hi)
			}
		case i < len(nodes)+len(classes):
			errs[i] = f.checkClasses(classes[i-len(nodes)].lo, classes[i-len(nodes)].hi)
		case i < len(errs):
			r := dir[i-len(nodes)-len(classes)]
			errs[i] = checkErr{kindSymbols, f.checkDir(r.lo, r.hi)}
		default:
			runBeside(i - len(errs))
		}
	})
	if nameAt(f.SymBlob, f.SymOff, WildcardSym) != "_" {
		// Codes are dense and the wildcard is interned at construction.
		errs = append(errs, checkErr{kindWildcard, fmt.Errorf("graph: symbol table must start with the wildcard %q", "_")})
	}
	var firstErr checkErr
	for _, e := range errs {
		if e.err != nil && e.err != errRiseElsewhere && (firstErr.err == nil || e.kind < firstErr.kind) {
			firstErr = e
		}
	}
	if err := first(firstErr.err); err != nil {
		return nil, nil, rk, err
	}
	var top heavyTop
	for _, part := range heavy {
		for _, h := range part {
			top.offer(h.v, h.deg)
		}
	}
	return syms, top.nodes(), rk, nil
}

// rankTable ranks the image's labels in the order of its rank tables,
// which must list at most MaxEdgeLabels edge labels (else ErrLabelSpace)
// and each kind's codes in range and once.
func (f Flat) rankTable() (ranks, error) {
	rk := ranks{make([]Sym, 0, len(f.EdgeLabels)), make([]Sym, 0, len(f.NodeLabels)), nil}
	if len(f.EdgeLabels) > MaxEdgeLabels {
		return rk, fmt.Errorf("%w: the image ranks %d", ErrLabelSpace, len(f.EdgeLabels))
	}
	for i, table := range [][]Sym{f.EdgeLabels, f.NodeLabels} {
		for _, c := range table {
			if c < 0 || int(c) >= f.NumSyms() {
				return rk, fmt.Errorf("graph: rank table code %d out of range [0,%d)", c, f.NumSyms())
			}
			if r := rk.rank(c); i == 0 && r.edge >= 0 || i == 1 && r.nbr >= 0 {
				return rk, fmt.Errorf("graph: rank table repeats code %d", c)
			}
			rk.add(c, i == 0)
		}
	}
	return rk, nil
}

// evenShards splits [0, n) into at most parts equal contiguous ranges.
func evenShards(parts, n int) []shard {
	parts = max(1, min(parts, n))
	out := make([]shard, 0, parts)
	for k := 0; k < parts && n > 0; k++ {
		out = append(out, shard{n * k / parts, n * (k + 1) / parts})
	}
	return out
}

// checkShape validates the symbol table's offsets and directory length,
// then the sizes every range check indexes by: each offset array's
// length, start and end, and the arenas'. The offset arrays' other
// invariant, monotonicity, is checked by the range tasks over their own
// offsets (see checkRise), unless a size is wrong: then the serial scan
// of every offset array, in order, finds the error to report, as a
// decrease ranks before a wrong end.
func (f Flat) checkShape() error {
	nsyms := f.NumSyms()
	if nsyms <= 0 {
		return fmt.Errorf("graph: empty symbol table")
	}
	if f.SymOff[0] != 0 {
		return fmt.Errorf("graph: symbol offsets start at %d", f.SymOff[0])
	}
	for i := 1; i <= nsyms; i++ {
		if f.SymOff[i] < f.SymOff[i-1] {
			return fmt.Errorf("graph: symbol offsets decrease at %d", i)
		}
	}
	if int(f.SymOff[nsyms]) != len(f.SymBlob) {
		return fmt.Errorf("graph: symbol offsets end at %d, blob holds %d bytes", f.SymOff[nsyms], len(f.SymBlob))
	}
	if len(f.SymDir) != nsyms {
		return fmt.Errorf("graph: symbol directory holds %d codes, table has %d symbols", len(f.SymDir), nsyms)
	}
	if f.checkOffsetArrays(false) != nil {
		return f.checkOffsetArrays(true)
	}
	return nil
}

// checkOffsetArrays checks the offset arrays in the serial order, each
// scanned for a decrease if scan is set, and the arena sizes.
func (f Flat) checkOffsetArrays(scan bool) error {
	n := len(f.Labels)
	if err := checkOffsets("attr", f.AttrOff, n, len(f.AttrPairs), scan); err != nil {
		return err
	}
	if err := checkOffsets("out", f.OutOff, n, len(f.Out), scan); err != nil {
		return err
	}
	if err := checkOffsets("in", f.InOff, n, len(f.In), scan); err != nil {
		return err
	}
	if err := checkOffsets("class", f.ClassOff, f.NumSyms(), len(f.Classes), scan); err != nil {
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
	kindAttrOff = iota
	kindOutOff
	kindInOff
	kindClassOff
	kindLabels
	kindOut
	kindIn
	kindAttrs
	kindClasses
	kindWildcard
	kindSymbols
)

// errRiseElsewhere marks a range whose own offsets rise but leave the
// arena: a decrease outside the range caused it, and the range holding
// that decrease reports it, so this marker is never the error returned.
var errRiseElsewhere = errors.New("graph: offsets decrease outside the range")

// checkRise validates off over [lo, hi] — one range task's share of an
// offset array whose start and end checkShape checked: non-decreasing, so
// the range's slice of the arena lies inside it. Ranges meet at their
// ends, so together they check every step of the array once.
func checkRise(name string, off []int32, lo, hi, arena int) error {
	for v := lo + 1; v <= hi; v++ {
		if off[v] < off[v-1] {
			return fmt.Errorf("graph: %s offsets decrease at %d (%d -> %d)", name, v, off[v-1], off[v])
		}
	}
	if off[lo] < 0 || int(off[hi]) > arena {
		return errRiseElsewhere
	}
	return nil
}

// checkNodes runs the per-node checks over nodes [lo, hi), stopping at the
// first failure: a later kind of check in this range can never be the one
// reported. The range's offsets come first: every later check indexes by
// them.
func (f Flat) checkNodes(rk *ranks, lo, hi int) checkErr {
	if err := checkRise("attr", f.AttrOff, lo, hi, len(f.AttrPairs)); err != nil {
		return checkErr{kindAttrOff, err}
	}
	if err := checkRise("out", f.OutOff, lo, hi, len(f.Out)); err != nil {
		return checkErr{kindOutOff, err}
	}
	if err := checkRise("in", f.InOff, lo, hi, len(f.In)); err != nil {
		return checkErr{kindInOff, err}
	}
	nsyms := f.NumSyms()
	for v := lo; v < hi; v++ {
		if l := f.Labels[v]; l < 0 || int(l) >= nsyms {
			return checkErr{kindLabels, fmt.Errorf("graph: node %d label code %d out of range [0,%d)", v, l, nsyms)}
		} else if rk.rank(l).nbr < 0 {
			return checkErr{kindLabels, fmt.Errorf("graph: node %d label code %d has no node rank", v, l)}
		}
	}
	// Adjacency: each key the one its labels give, each node's range in
	// compareCSR order — the bisections and the matcher's sorted-range
	// intersection assume it.
	if err := checkAdjacency("out", f.OutOff, f.Out, f.Labels, rk, len(f.EdgeLabels), lo, hi); err != nil {
		return checkErr{kindOut, err}
	}
	if err := checkAdjacency("in", f.InOff, f.In, f.Labels, rk, len(f.EdgeLabels), lo, hi); err != nil {
		return checkErr{kindIn, err}
	}
	if err := checkTuples(f.AttrOff, f.AttrPairs, nsyms, lo, hi); err != nil {
		return checkErr{kindAttrs, err}
	}
	return checkErr{}
}

// checkClasses validates label classes [lo, hi): their offsets (see
// checkRise), then each class ascending and containing exactly the nodes
// carrying its label. Together with the offset total == |V| this forces
// every node into exactly its own class. Like checkAdjacency it is one
// loop over the classes' arena slice.
func (f Flat) checkClasses(lo, hi int) checkErr {
	if err := checkRise("class", f.ClassOff, lo, hi, len(f.Classes)); err != nil {
		return checkErr{kindClassOff, err}
	}
	n := len(f.Labels)
	base := int(f.ClassOff[lo])
	run := f.Classes[base:f.ClassOff[hi]]
	l, end := lo-1, 0 // as in checkAdjacency: class l owns run[:end]
	for i, v := range run {
		head := i == end
		if head {
			for l++; int(f.ClassOff[l+1])-base == i; l++ {
			}
			end = int(f.ClassOff[l+1]) - base
		}
		if v < 0 || int(v) >= n {
			return checkErr{kindClasses, fmt.Errorf("graph: class %d member %d node id %d out of range [0,%d)", l, i-(int(f.ClassOff[l])-base), v, n)}
		}
		if f.Labels[v] != Sym(l) {
			return checkErr{kindClasses, fmt.Errorf("graph: class %d holds node %d labeled %d", l, v, f.Labels[v])}
		}
		if !head && run[i-1] >= v {
			return checkErr{kindClasses, fmt.Errorf("graph: class %d not strictly ascending at %d", l, i-(int(f.ClassOff[l])-base))}
		}
	}
	return checkErr{}
}

// checkDir validates directory entries [lo, hi): each a code in range
// whose name is strictly greater, bytewise, than the previous entry's.
// Over the whole directory (of length s, checkShape) that makes it a
// permutation of [0, s) — a repeated code would repeat a name — and
// proves the names distinct, which interning's bijection needs.
func (f Flat) checkDir(lo, hi int) error {
	nsyms := f.NumSyms()
	dir := f.SymDir
	for i := lo; i < hi; i++ {
		c := dir[i]
		if c < 0 || int(c) >= nsyms {
			return fmt.Errorf("graph: symbol directory entry %d code %d out of range [0,%d)", i, c, nsyms)
		}
		if i == 0 {
			continue
		}
		p := dir[i-1]
		if p < 0 || int(p) >= nsyms {
			continue // the range holding entry i-1 reports it, first
		}
		switch prev, name := nameAt(f.SymBlob, f.SymOff, p), nameAt(f.SymBlob, f.SymOff, c); strings.Compare(prev, name) {
		case 0:
			if p == c {
				return fmt.Errorf("graph: symbol directory repeats code %d at %d", c, i)
			}
			return fmt.Errorf("graph: duplicate symbol %q (codes %d and %d)", name, p, c)
		case 1:
			return fmt.Errorf("graph: symbol directory not in name order at %d", i)
		}
	}
	return nil
}

// checkOffsets validates one CSR offset array: length count+1, starting at
// 0, ending exactly at the arena length, and, if scan is set, monotone
// non-decreasing — a decrease ranks before a wrong end.
func checkOffsets(name string, off []int32, count, arena int, scan bool) error {
	if len(off) != count+1 {
		return fmt.Errorf("graph: %s offsets length %d, want %d", name, len(off), count+1)
	}
	if count >= 0 && len(off) > 0 && off[0] != 0 {
		return fmt.Errorf("graph: %s offsets start at %d, want 0", name, off[0])
	}
	if scan {
		if err := checkRise(name, off, 0, count, arena); err != nil && err != errRiseElsewhere {
			return err
		}
	}
	if int(off[len(off)-1]) != arena {
		return fmt.Errorf("graph: %s offsets end at %d, arena holds %d", name, off[len(off)-1], arena)
	}
	return nil
}

// checkAdjacency validates one direction's arena over nodes [lo, hi):
// neighbours and edge ranks (below nedge) in range, each key's neighbour
// rank its neighbour's label's, and each node's range in compareCSR order
// (non-strict: duplicate entries mirror the mutable graph's multi-edge
// behavior). A bad label outside [lo, hi) fails its own range's label
// check, which outranks this one.
//
// It walks the nodes' arena slice as one loop — most nodes hold one or two
// edges, so a loop per node would cost more than its checks — keeping the
// node that owns the current entry off the offsets, for the order check
// (which starts over at each node) and for the error messages.
func checkAdjacency(name string, off []int32, es []CSREdge, labels []Sym, rk *ranks, nedge, lo, hi int) error {
	n := len(labels)
	label := func(v NodeID) Sym { return labels[v] }
	base := int(off[lo])
	run := es[base:off[hi]]
	v, end := lo-1, 0 // node v owns run[:end] from its first entry on
	var prev CSREdge
	for i, e := range run {
		head := i == end
		if head {
			for v++; int(off[v+1])-base == i; v++ {
			}
			end = int(off[v+1]) - base
		}
		if e.To < 0 || int(e.To) >= n {
			return fmt.Errorf("graph: %s edge of node %d targets %d, out of range [0,%d)", name, v, e.To, n)
		}
		if r := int(e.Label >> nbrBits); r >= nedge {
			return fmt.Errorf("graph: %s edge of node %d edge rank %d out of range [0,%d)", name, v, r, nedge)
		}
		if got, want := int32(e.Label&nbrMask), rk.rank(labels[e.To]).nbr; got != want {
			return fmt.Errorf("graph: %s edge of node %d to %d has neighbour rank %d, its label's is %d", name, v, e.To, got, want)
		}
		if !head && e.Label <= prev.Label && compareCSR(prev, e, label) > 0 {
			return fmt.Errorf("graph: %s adjacency of node %d not in (key, to) order at %d", name, v, i-(int(off[v])-base))
		}
		prev = e
	}
	return nil
}

// checkTuples validates the attribute tuples of nodes [lo, hi): codes in
// range, names strictly increasing per node (a tuple is a map image —
// duplicates would make AttrSym ambiguous). Like checkAdjacency it is one
// loop over the nodes' arena slice.
func checkTuples(off []int32, ps []AttrPair, nsyms, lo, hi int) error {
	base := int(off[lo])
	run := ps[base:off[hi]]
	v, end := lo-1, 0
	for i, p := range run {
		head := i == end
		if head {
			for v++; int(off[v+1])-base == i; v++ {
			}
			end = int(off[v+1]) - base
		}
		if p.Name < 0 || int(p.Name) >= nsyms || p.Val < 0 || int(p.Val) >= nsyms {
			return fmt.Errorf("graph: node %d attr pair %d codes (%d,%d) out of range [0,%d)", v, i-(int(off[v])-base), p.Name, p.Val, nsyms)
		}
		if !head && run[i-1].Name >= p.Name {
			return fmt.Errorf("graph: node %d attr tuple not strictly sorted by name at %d", v, i-(int(off[v])-base))
		}
	}
	return nil
}
