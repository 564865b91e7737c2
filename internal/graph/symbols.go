package graph

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sync"
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
// The name → code index is a pointer-free slot array over names: open
// addressing with linear probing, hashed with hash/maphash under one
// per-process seed, rehashed when it passes load ½. The garbage collector
// never scans the slots, and adopting a persisted table (the per-open cost
// of a .gfds file) sizes the slots once and probes each name once — a
// step that runs beside the parallel structural validation in AdoptFlat.
// Freeze-time bulk interning probes the same way, without the lock: the
// table is private to the build until it returns.
type Symbols struct {
	mu    sync.RWMutex
	names []string
	// slots holds code+1 of the name hashed there, 0 for an empty slot;
	// its length is a power of two at least 2·len(names).
	slots []Sym
}

// symSeed hashes every table in the process: one seed keeps a name's slot
// a pure function of the name and the slot count.
var symSeed = maphash.MakeSeed()

// NewSymbols returns a table with the wildcard pre-interned as WildcardSym.
func NewSymbols() *Symbols {
	s := &Symbols{slots: slotsFor(1)}
	s.Intern("_")
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

// symView is a table's index read without the lock: the freeze's parallel
// fill reads it once the table is complete (see Symbols.view).
type symView struct {
	names []string
	slots []Sym
}

// probe returns the slot holding name, or the empty slot that ends its
// probe sequence.
func (v symView) probe(name string) int {
	mask := uint64(len(v.slots) - 1)
	i := maphash.String(symSeed, name) & mask
	for {
		c := v.slots[i]
		if c == 0 || v.names[c-1] == name {
			return int(i)
		}
		i = (i + 1) & mask
	}
}

// code returns the code of name, NoSym if absent.
func (v symView) code(name string) Sym { return v.slots[v.probe(name)] - 1 }

// indexNames builds the slot array over names, rejecting a name whose
// probe lands on an equal one: two codes for one name would break
// interning's bijection.
func indexNames(names []string) ([]Sym, error) {
	v := symView{names, slotsFor(len(names))}
	for c, name := range names {
		i := v.probe(name)
		if v.slots[i] != 0 {
			return nil, fmt.Errorf("graph: duplicate symbol %q", name)
		}
		v.slots[i] = Sym(c + 1)
	}
	return v.slots, nil
}

// Intern returns the code of name, assigning the next dense code if the
// name is new.
func (s *Symbols) Intern(name string) Sym {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.intern(name)
}

// intern is Intern without the lock, for a table no other goroutine can
// reach yet: the one a snapshot build fills before it returns.
func (s *Symbols) intern(name string) Sym {
	i := s.view().probe(name)
	if c := s.slots[i]; c != 0 {
		return c - 1
	}
	c := Sym(len(s.names))
	s.names = append(s.names, name)
	if 2*len(s.names) > len(s.slots) {
		s.slots, _ = indexNames(s.names) // names are distinct by construction
	} else {
		s.slots[i] = c + 1
	}
	return c
}

// Lookup returns the code of name without interning; NoSym if absent.
func (s *Symbols) Lookup(name string) Sym {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.view().code(name)
}

// Name returns the string a code was interned from.
func (s *Symbols) Name(c Sym) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names[c]
}

// Len returns the number of interned names.
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Names returns a copy of the interned names in code order (index i is the
// string Sym(i) was interned from) — the serializable image of the table.
func (s *Symbols) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.names...)
}

// adoptSymbols builds a table over a serialized name list, which it
// retains (clipped, so a later Intern appends into a fresh array and never
// into spare capacity the caller's slice may share with another table's).
// The list must be a valid table image: non-empty and wildcard first
// (codes are dense and the wildcard is always interned at construction),
// checked before anything is indexed, and free of duplicates.
func adoptSymbols(names []string) (*Symbols, error) {
	if len(names) == 0 || names[0] != "_" {
		return nil, fmt.Errorf("graph: symbol table must start with the wildcard %q", "_")
	}
	slots, err := indexNames(names)
	if err != nil {
		return nil, err
	}
	return &Symbols{names: slices.Clip(names), slots: slots}, nil
}

// view returns the table's index for lock-free reads. Only for phases with
// no concurrent Intern — the freeze's parallel fill reads it after the
// table is fully built and before the snapshot is published.
func (s *Symbols) view() symView { return symView{s.names, s.slots} }
