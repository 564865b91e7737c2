package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// checkSymbolsAgainst fails unless syms is exactly the bijection the
// oracle describes: dense codes in interning order, each name at its code.
func checkSymbolsAgainst(t *testing.T, syms *Symbols, oracle map[string]Sym) {
	t.Helper()
	if syms.Len() != len(oracle) {
		t.Fatalf("Len = %d, oracle holds %d names", syms.Len(), len(oracle))
	}
	for name, c := range oracle {
		if got := syms.Lookup(name); got != c {
			t.Fatalf("Lookup(%q) = %d, want %d", name, got, c)
		}
		if got := syms.Name(c); got != name {
			t.Fatalf("Name(%d) = %q, want %q", c, got, name)
		}
	}
}

// symImage returns the symbol arrays of a table image over names: the
// blob and offsets in code order, and the codes stably sorted by name.
// It does not check the names, so tests build lying images with it.
func symImage(names []string) ([]byte, []uint32, []Sym) {
	var blob []byte
	off := []uint32{0}
	dir := make([]Sym, len(names))
	for i, n := range names {
		blob = append(blob, n...)
		off = append(off, uint32(len(blob)))
		dir[i] = Sym(i)
	}
	slices.SortStableFunc(dir, func(a, b Sym) int { return strings.Compare(names[a], names[b]) })
	return blob, off, dir
}

// checkDirectory fails unless dir lists every code of syms once, in
// strictly increasing bytewise order of the names.
func checkDirectory(t *testing.T, syms *Symbols, dir []Sym) {
	t.Helper()
	if len(dir) != syms.Len() {
		t.Fatalf("directory holds %d codes, table %d", len(dir), syms.Len())
	}
	for i := 1; i < len(dir); i++ {
		if syms.Name(dir[i-1]) >= syms.Name(dir[i]) {
			t.Fatalf("directory not strictly increasing at %d: %q, %q", i, syms.Name(dir[i-1]), syms.Name(dir[i]))
		}
	}
}

// TestSymbolsMatchMapOracle interleaves random Intern, Lookup and Name
// calls against a map[string]Sym oracle, from a fresh table and from an
// adopted one (binary search over its directory until the first Intern
// that grows it), through several rehashes of the slot index. Now and
// then it takes the table's image, whose directory must list every code
// in name order.
func TestSymbolsMatchMapOracle(t *testing.T) {
	adoptedNames := []string{"_"}
	for i := 0; i < 300; i++ {
		adoptedNames = append(adoptedNames, fmt.Sprintf("pre%d", i))
	}
	starts := map[string]func() *Symbols{
		"new":     NewSymbols,
		"adopted": func() *Symbols { return adoptSymbols(symImage(adoptedNames)) },
	}
	for name, start := range starts {
		t.Run(name, func(t *testing.T) {
			syms := start()
			oracle := map[string]Sym{}
			for i := 0; i < syms.Len(); i++ {
				oracle[syms.Name(Sym(i))] = Sym(i)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			initialSlots := len(slotsFor(syms.Len()))
			for op := 0; op < 40000; op++ {
				// Names drawn from a pool larger than the ops intern, so
				// Lookup misses as well as hits; pre-adopted names recur.
				var n string
				if rng.Intn(8) == 0 {
					n = fmt.Sprintf("pre%d", rng.Intn(400))
				} else {
					n = fmt.Sprintf("n%d", rng.Intn(12000))
				}
				switch rng.Intn(3) {
				case 0:
					want, ok := oracle[n]
					if !ok {
						want = Sym(len(oracle))
						oracle[n] = want
					}
					if got := syms.Intern(n); got != want {
						t.Fatalf("op %d: Intern(%q) = %d, want %d", op, n, got, want)
					}
				case 1:
					want, ok := oracle[n]
					if !ok {
						want = NoSym
					}
					if got := syms.Lookup(n); got != want {
						t.Fatalf("op %d: Lookup(%q) = %d, want %d", op, n, got, want)
					}
				case 2:
					c := Sym(rng.Intn(syms.Len()))
					if oracle[syms.Name(c)] != c {
						t.Fatalf("op %d: Name(%d) = %q, which the oracle codes %d", op, c, syms.Name(c), oracle[syms.Name(c)])
					}
				}
				if syms.slots != nil && 2*syms.Len() > len(syms.slots) {
					t.Fatalf("op %d: %d names in %d slots, above load 1/2", op, syms.Len(), len(syms.slots))
				}
				if op%5000 == 0 {
					_, _, dir := syms.image()
					checkDirectory(t, syms, dir)
				}
			}
			if len(syms.slots) < 8*initialSlots {
				t.Fatalf("slots grew %d -> %d: fewer than three rehashes exercised", initialSlots, len(syms.slots))
			}
			checkSymbolsAgainst(t, syms, oracle)
		})
	}
}

// TestSymbolsImageKeepsDirectory: an adopted table that has not grown
// saves the directory it adopted, and a table's directory, once rebuilt
// for the codes interned since, is reused until the table grows again.
func TestSymbolsImageKeepsDirectory(t *testing.T) {
	syms := adoptSymbols(symImage([]string{"_", "b", "d", "a"}))
	_, _, adopted := syms.image()
	if &adopted[0] != &syms.dir[0] || syms.slots != nil {
		t.Fatal("an unchanged adopted table rebuilt its directory or hashed its names")
	}
	for _, n := range []string{"c", "", "e", "b"} {
		syms.Intern(n)
	}
	_, _, grown := syms.image()
	checkDirectory(t, syms, grown)
	if got := []string{syms.Name(grown[0]), syms.Name(grown[len(grown)-1])}; got[0] != "" || got[1] != "e" {
		t.Fatalf("directory runs %q .. %q, want \"\" .. \"e\"", got[0], got[1])
	}
	if _, _, again := syms.image(); &again[0] != &grown[0] {
		t.Fatal("a second image of an unchanged table rebuilt its directory")
	}
}

// TestSymbolsConcurrentInternLookup races Intern against Lookup and Name
// (meaningful under -race): every code a goroutine is handed must name
// what it interned, from any goroutine, across rehashes.
func TestSymbolsConcurrentInternLookup(t *testing.T) {
	syms := NewSymbols()
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				// Half the names are shared between workers.
				n := fmt.Sprintf("w%d-%d", w%2, i)
				c := syms.Intern(n)
				if got := syms.Lookup(n); got != c {
					errs <- fmt.Errorf("Lookup(%q) = %d after Intern gave %d", n, got, c)
					return
				}
				if got := syms.Name(c); got != n {
					errs <- fmt.Errorf("Name(%d) = %q, interned %q", c, got, n)
					return
				}
				if other := fmt.Sprintf("w%d-%d", (w+1)%2, i); syms.Lookup(other) == WildcardSym {
					errs <- fmt.Errorf("Lookup(%q) returned the wildcard", other)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	oracle := map[string]Sym{}
	for i := 0; i < syms.Len(); i++ {
		oracle[syms.Name(Sym(i))] = Sym(i)
	}
	if len(oracle) != 1+2*perWorker {
		t.Fatalf("%d distinct names, want %d", len(oracle), 1+2*perWorker)
	}
	checkSymbolsAgainst(t, syms, oracle)
}

// TestAdoptFlatRejectsBadSymbolTable: the directory check replaces the
// name index's — a duplicate name, a first name other than the wildcard,
// and every way a directory can fail to list the codes in name order.
func TestAdoptFlatRejectsBadSymbolTable(t *testing.T) {
	f, err := randomGraph(t, 3, 50, 150).Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, f.NumSyms())
	for c := range names {
		names[c] = nameAt(f.SymBlob, f.SymOff, Sym(c))
	}
	// withNames re-images the table over edited names (a consistent
	// directory for them); withDir edits the directory alone.
	withNames := func(edit func(names []string)) func(f *Flat) {
		return func(f *Flat) {
			ns := slices.Clone(names)
			edit(ns)
			f.SymBlob, f.SymOff, f.SymDir = symImage(ns)
		}
	}
	withDir := func(edit func(dir []Sym) []Sym) func(f *Flat) {
		return func(f *Flat) { f.SymDir = edit(slices.Clone(f.SymDir)) }
	}
	cases := map[string]struct {
		mutate func(f *Flat)
		want   string
	}{
		"duplicate":      {withNames(func(ns []string) { ns[len(ns)-1] = ns[1] }), "duplicate symbol"},
		"no wildcard":    {withNames(func(ns []string) { ns[0] = "x" }), "wildcard"},
		"wildcard moved": {withNames(func(ns []string) { ns[0], ns[1] = ns[1], ns[0] }), "wildcard"},
		"mis-sorted":     {withDir(func(d []Sym) []Sym { d[3], d[4] = d[4], d[3]; return d }), "not in name order at 4"},
		"repeated code":  {withDir(func(d []Sym) []Sym { d[5] = d[4]; return d }), "repeats code"},
		"code past end":  {withDir(func(d []Sym) []Sym { d[2] = Sym(len(d)); return d }), "out of range"},
		"negative code":  {withDir(func(d []Sym) []Sym { d[len(d)-1] = -1; return d }), "out of range"},
		"short":          {withDir(func(d []Sym) []Sym { return d[1:] }), "symbol directory holds"},
		"long":           {withDir(func(d []Sym) []Sym { return append(d, 0) }), "symbol directory holds"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			g := f
			tc.mutate(&g)
			_, err := AdoptFlat(g)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AdoptFlat error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestAdoptedTablesShareNoNames: a table adopted from a Flat owns copies
// of its three symbol arrays. Two snapshots adopted from one Flat
// (fragment.SaveShards adopts every shard from one shared image) intern
// different names and each stays a dense bijection; no array aliases the
// Flat's (which a mapped file backs, and a compacted snapshot outlives);
// and Name and Lookup answer the same after the source arrays are
// overwritten.
func TestAdoptedTablesShareNoNames(t *testing.T) {
	src, err := randomGraph(t, 4, 30, 90).Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	base := src.NumSyms()
	oracle := map[string]Sym{}
	for c := 0; c < base; c++ {
		oracle[nameAt(src.SymBlob, src.SymOff, Sym(c))] = Sym(c)
	}
	// Spare capacity on every array: an append that reused it would share
	// it between the tables.
	f := src
	f.SymBlob = append(make([]byte, 0, len(src.SymBlob)+64), src.SymBlob...)
	f.SymOff = append(make([]uint32, 0, len(src.SymOff)+16), src.SymOff...)
	f.SymDir = append(make([]Sym, 0, len(src.SymDir)+16), src.SymDir...)
	a, err := AdoptFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdoptFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	overlaps := func(p unsafe.Pointer, n uintptr, q unsafe.Pointer, m uintptr) bool {
		return n > 0 && m > 0 && uintptr(p) < uintptr(q)+m && uintptr(q) < uintptr(p)+n
	}
	for _, syms := range []*Symbols{a.Syms(), b.Syms()} {
		if overlaps(unsafe.Pointer(unsafe.SliceData(syms.blob)), uintptr(cap(syms.blob)), unsafe.Pointer(unsafe.SliceData(f.SymBlob)), uintptr(cap(f.SymBlob))) ||
			overlaps(unsafe.Pointer(unsafe.SliceData(syms.off)), 4*uintptr(cap(syms.off)), unsafe.Pointer(unsafe.SliceData(f.SymOff)), 4*uintptr(cap(f.SymOff))) ||
			overlaps(unsafe.Pointer(unsafe.SliceData(syms.dir)), 4*uintptr(cap(syms.dir)), unsafe.Pointer(unsafe.SliceData(f.SymDir)), 4*uintptr(cap(f.SymDir))) {
			t.Fatal("an adopted table aliases the Flat's symbol arrays")
		}
	}
	// Overwrite the source: an adopted table that is only read (binary
	// search over its directory) and one that has grown must not notice.
	for i := range f.SymBlob[:cap(f.SymBlob)] {
		f.SymBlob[:cap(f.SymBlob)][i] = 'X'
	}
	clear(f.SymOff[:cap(f.SymOff)])
	clear(f.SymDir[:cap(f.SymDir)])
	checkSymbolsAgainst(t, a.Syms(), oracle)
	if got := a.Syms().Lookup("absent"); got != NoSym {
		t.Fatalf("Lookup(absent) = %d on an unchanged adopted table", got)
	}
	for i := 0; i < 20; i++ {
		a.Syms().Intern(fmt.Sprintf("a%d", i))
		b.Syms().Intern(fmt.Sprintf("b%d", i))
	}
	for _, tc := range []struct {
		syms   *Symbols
		prefix string
	}{{a.Syms(), "a"}, {b.Syms(), "b"}} {
		want := maps.Clone(oracle)
		for i := 0; i < 20; i++ {
			want[fmt.Sprintf("%s%d", tc.prefix, i)] = Sym(base + i)
		}
		checkSymbolsAgainst(t, tc.syms, want)
	}
}

// TestSortByNameMatchesStringOrder: the directory sort keys names by
// their first 16 bytes, so it is checked against plain string order on
// names that tie there — long shared prefixes, a name that is a prefix of
// another, zero bytes that the key's padding cannot tell from the end of
// a name, the empty name.
func TestSortByNameMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	stems := []string{"", "person_", "a_prefix_longer_than_sixteen_bytes_", "a\x00", "a", "\x00", "\xff\xfe"}
	for _, n := range []int{0, 1, 2, 40, 3000} {
		syms := NewSymbols()
		for i := 0; i < n; i++ {
			syms.Intern(stems[rng.Intn(len(stems))] + strings.Repeat("\x00", rng.Intn(2)) + fmt.Sprint(rng.Intn(50)))
		}
		syms.Intern("")
		v := syms.view()
		codes := make([]Sym, syms.Len())
		for c := range codes {
			codes[c] = Sym(c)
		}
		want := slices.Clone(codes)
		slices.SortFunc(want, func(a, b Sym) int { return strings.Compare(v.name(a), v.name(b)) })
		v.sortByName(codes)
		if !slices.Equal(codes, want) {
			t.Fatalf("%d names: sortByName order differs from string order", syms.Len())
		}
	}
}
