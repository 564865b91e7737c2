package graph

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// Sym is a dense interned code for a node label, edge label, attribute
// name, or attribute value. Snapshots compare labels as Sym equality
// instead of string comparison in the matching inner loop, and literal
// programs (core.LiteralProgram) compare attribute values the same way;
// see Symbols.
type Sym int32

const (
	// WildcardSym is the interned code of the pattern wildcard label "_"
	// (pattern.Wildcard; the literal is repeated here because package
	// pattern depends on this package). Every Symbols table interns it at
	// construction so the wildcard check compiles to `sym == 0`.
	WildcardSym Sym = 0

	// NoSym marks a name that is absent from a Symbols table. Compiled
	// patterns use it for labels the frozen graph never mentions: NoSym
	// equals no concrete code and is not the wildcard, so it matches
	// nothing.
	NoSym Sym = -1
)

// Symbols is an interning table mapping names (node labels, edge labels,
// attribute names, and attribute values — one shared namespace) to dense
// Sym codes. A Snapshot owns one; package pattern compiles patterns
// against it so pattern/graph label comparison is integer equality,
// including the wildcard check, and package core lowers X → Y literals
// onto it so per-match attribute checking is integer equality too.
//
// The table is safe for concurrent use: Lookup/Name/Len take a shared
// lock, Intern an exclusive one. Codes are append-only, so readers always
// observe a consistent prefix. This matters for the delta-overlay
// lifecycle, where a live table can be grown (rule lowering against an
// Overlay interns labels and constants) while other prepared rule sets
// compile against it; the per-match hot paths never touch the table — they
// run on resolved codes.
//
// The table holds no pointer per name. Every name's bytes sit in one blob
// in code order, cut by a []uint32 offset array, so Name is a substring of
// the blob with no per-name string header. Bytes below the blob's length
// are never rewritten (Intern appends), so a name handed out stays valid
// while the table grows.
//
// Names are found in one of two indexes. A table adopted from a persisted
// image (AdoptFlat) carries a directory: its codes in bytewise name order,
// checked at adoption and searched by binary search, so adopting a table
// — every cold open — indexes no name. Such a table answers each Lookup by
// that search alone; lookups are few, since a rule set's names are lowered
// once per graph version (rules, group patterns and pivots) or per matcher
// plan, never per work unit. The first Intern that grows the table indexes
// all of it once into a slot array: open addressing with linear probing,
// hashed with hash/maphash under one per-process seed, rehashed when it
// passes load ½, which the garbage collector never scans. A table built by
// a freeze is hashed from the start. Saving needs the directory of every
// code; it is rebuilt on demand when it lags the table (see image).
type Symbols struct {
	mu   sync.RWMutex
	blob []byte
	// off has one entry per name plus one: code c names
	// blob[off[c]:off[c+1]].
	off []uint32
	// dir lists the codes [0, len(dir)) in bytewise name order.
	dir []Sym
	// slots holds code+1 of the name hashed there, 0 for an empty slot;
	// its length is a power of two at least 2·Len(). It is nil while the
	// table is an unchanged adopted image, whose dir covers every code.
	slots []Sym
}

// symSeed hashes every table in the process: one seed keeps a name's slot
// a pure function of the name and the slot count.
var symSeed = maphash.MakeSeed()

// NewSymbols returns a table with the wildcard pre-interned as WildcardSym.
func NewSymbols() *Symbols {
	s := &Symbols{off: []uint32{0}, slots: slotsFor(1)}
	s.intern("_")
	return s
}

// slotsFor returns an empty slot array for n names at load at most ½.
func slotsFor(n int) []Sym {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	return make([]Sym, size)
}

// symView is a table read without the lock: the freeze's parallel fill
// reads it once the table is complete (see Symbols.view).
type symView struct {
	blob  []byte
	off   []uint32
	slots []Sym
}

// nameAt returns the name of code c in a blob cut by off, as a string
// over the blob's bytes (which are never rewritten).
func nameAt(blob []byte, off []uint32, c Sym) string {
	lo, hi := off[c], off[c+1]
	if lo == hi {
		return ""
	}
	return unsafe.String(&blob[lo], hi-lo)
}

// name returns the name of code c.
func (v symView) name(c Sym) string { return nameAt(v.blob, v.off, c) }

// probe returns the slot holding name, or the empty slot that ends its
// probe sequence.
func (v symView) probe(name string) int {
	mask := uint64(len(v.slots) - 1)
	i := maphash.String(symSeed, name) & mask
	for {
		c := v.slots[i]
		if c == 0 || v.name(c-1) == name {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// code returns the code of name, NoSym if absent.
func (v symView) code(name string) Sym { return v.slots[v.probe(name)] - 1 }

// indexNames builds the slot array over the view's names, which are
// distinct: the directory check of an adopted image or interning itself
// guarantees it.
func indexNames(v symView) []Sym {
	n := len(v.off) - 1
	v.slots = slotsFor(n)
	for c := 0; c < n; c++ {
		v.slots[v.probe(v.name(Sym(c)))] = Sym(c + 1)
	}
	return v.slots
}

// Intern returns the code of name, assigning the next dense code if the
// name is new.
func (s *Symbols) Intern(name string) Sym {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intern(name)
}

// intern is Intern without the lock, for a table no other goroutine can
// reach yet: the one a snapshot build fills before it returns. The table
// holds at most 4 GiB of name bytes, the reach of its uint32 offsets (and
// of the .gfds format's); a name past it panics.
func (s *Symbols) intern(name string) Sym {
	if s.slots == nil {
		if c := s.search(name); c != NoSym {
			return c
		}
		s.slots = indexNames(s.view())
	}
	i := s.view().probe(name)
	if c := s.slots[i]; c != 0 {
		return c - 1
	}
	if uint64(len(s.blob))+uint64(len(name)) > math.MaxUint32 {
		panic(fmt.Sprintf("graph: symbol table would exceed %d bytes of names", uint64(math.MaxUint32)))
	}
	c := Sym(len(s.off) - 1)
	s.blob = append(s.blob, name...)
	s.off = append(s.off, uint32(len(s.blob)))
	if n := len(s.off) - 1; 2*n > len(s.slots) {
		s.slots = indexNames(s.view())
	} else {
		s.slots[i] = c + 1
	}
	return c
}

// search binary-searches the directory for name: NoSym if absent.
func (s *Symbols) search(name string) Sym {
	d := s.dir
	for len(d) > 0 {
		h := len(d) >> 1
		switch strings.Compare(nameAt(s.blob, s.off, d[h]), name) {
		case 0:
			return d[h]
		case -1:
			d = d[h+1:]
		default:
			d = d[:h]
		}
	}
	return NoSym
}

// Lookup returns the code of name without interning; NoSym if absent.
func (s *Symbols) Lookup(name string) Sym {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.slots != nil {
		return s.view().code(name)
	}
	return s.search(name)
}

// Name returns the string a code was interned from.
func (s *Symbols) Name(c Sym) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view().name(c)
}

// Len returns the number of interned names.
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.off) - 1
}

// image returns the table's serializable image: the blob, the offsets and
// a directory of every code, each clipped to the table's current length.
// The arrays are the table's own (no copies): bytes and entries below
// those lengths are never rewritten. A directory that lags the table — a
// freeze-built table has none, an adopted one lags once it grows — is
// rebuilt here by one sort and kept, so a table saved twice, or adopted
// and saved unchanged, sorts nothing the second time.
func (s *Symbols) image() ([]byte, []uint32, []Sym) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.off) - 1
	if len(s.dir) < n {
		dir := make([]Sym, n)
		for c := range dir {
			dir[c] = Sym(c)
		}
		s.view().sortByName(dir)
		s.dir = dir
	}
	return slices.Clip(s.blob), s.off[: n+1 : n+1], s.dir[:n:n]
}

// sortByName sorts codes by their names, bytewise. Names are short and
// share long prefixes ("person_1220", "person_2720"), so each is keyed by
// its first 16 bytes as two big-endian words, zero-padded — an order the
// bytewise one refines — and whole names are compared only on a tie.
func (v symView) sortByName(codes []Sym) {
	type keyed struct {
		hi, lo uint64
		c      Sym
	}
	ks := make([]keyed, len(codes))
	for i, c := range codes {
		var b [16]byte
		copy(b[:], v.name(c))
		ks[i] = keyed{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:]), c}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.hi != b.hi {
			return cmp.Compare(a.hi, b.hi)
		}
		if a.lo != b.lo {
			return cmp.Compare(a.lo, b.lo)
		}
		return strings.Compare(v.name(a.c), v.name(b.c))
	})
	for i, k := range ks {
		codes[i] = k.c
	}
}

// adoptSymbols builds a table over a validated image (see
// Flat.validate), copying its three arrays: clones, map-shaped graph
// reads and compacted overlays hold interned names long after the caller
// may have closed a mapping, so the table never aliases its source. The
// directory is kept, and no name is hashed until the table first grows.
func adoptSymbols(blob []byte, off []uint32, dir []Sym) *Symbols {
	return &Symbols{blob: slices.Clone(blob), off: slices.Clone(off), dir: slices.Clone(dir)}
}

// view returns the table's arrays for lock-free reads. Only for phases
// with no concurrent Intern — the freeze's parallel fill reads it after
// the table is fully built and before the snapshot is published.
func (s *Symbols) view() symView { return symView{s.blob, s.off, s.slots} }
