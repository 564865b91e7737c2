package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
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

// TestSymbolsMatchMapOracle interleaves random Intern, Lookup and Name
// calls against a map[string]Sym oracle, from a fresh table and from an
// adopted one, through several rehashes of the slot index.
func TestSymbolsMatchMapOracle(t *testing.T) {
	adoptedNames := []string{"_"}
	for i := 0; i < 300; i++ {
		adoptedNames = append(adoptedNames, fmt.Sprintf("pre%d", i))
	}
	starts := map[string]func() (*Symbols, error){
		"new":     func() (*Symbols, error) { return NewSymbols(), nil },
		"adopted": func() (*Symbols, error) { return adoptSymbols(slices.Clone(adoptedNames)) },
	}
	for name, start := range starts {
		t.Run(name, func(t *testing.T) {
			syms, err := start()
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[string]Sym{}
			for i := 0; i < syms.Len(); i++ {
				oracle[syms.Name(Sym(i))] = Sym(i)
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			initialSlots := len(syms.slots)
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
				if 2*syms.Len() > len(syms.slots) {
					t.Fatalf("op %d: %d names in %d slots, above load 1/2", op, syms.Len(), len(syms.slots))
				}
			}
			if len(syms.slots) < 8*initialSlots {
				t.Fatalf("slots grew %d -> %d: fewer than three rehashes exercised", initialSlots, len(syms.slots))
			}
			checkSymbolsAgainst(t, syms, oracle)
		})
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

// TestAdoptFlatRejectsBadSymbolTable: the symbol index keeps both table
// checks — a duplicate name and a first name other than the wildcard.
func TestAdoptFlatRejectsBadSymbolTable(t *testing.T) {
	f, err := randomGraph(t, 3, 50, 150).Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]struct {
		mutate func(names []string)
		want   string
	}{
		"duplicate":      {func(names []string) { names[len(names)-1] = names[1] }, "duplicate symbol"},
		"no wildcard":    {func(names []string) { names[0] = "x" }, "wildcard"},
		"wildcard moved": {func(names []string) { names[0], names[1] = names[1], names[0] }, "wildcard"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			g := f
			g.Names = slices.Clone(f.Names)
			tc.mutate(g.Names)
			_, err := AdoptFlat(g)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("AdoptFlat error = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestAdoptedTablesShareNoNames: two snapshots adopted from one Flat
// (fragment.SaveShards adopts every shard from one shared name list)
// intern different names, and each table stays a dense bijection — the
// adopted list is clipped, so neither Intern writes into spare capacity
// the other table's list shares.
func TestAdoptedTablesShareNoNames(t *testing.T) {
	f, err := randomGraph(t, 4, 30, 90).Freeze().Flat()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(f.Names), len(f.Names)+16)
	copy(names, f.Names)
	f.Names = names
	a, err := AdoptFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	b, err := AdoptFlat(f)
	if err != nil {
		t.Fatal(err)
	}
	base := len(f.Names)
	for i := 0; i < 20; i++ {
		a.Syms().Intern(fmt.Sprintf("a%d", i))
		b.Syms().Intern(fmt.Sprintf("b%d", i))
	}
	for _, tc := range []struct {
		syms   *Symbols
		prefix string
	}{{a.Syms(), "a"}, {b.Syms(), "b"}} {
		oracle := map[string]Sym{}
		for i, n := range f.Names {
			oracle[n] = Sym(i)
		}
		for i := 0; i < 20; i++ {
			oracle[fmt.Sprintf("%s%d", tc.prefix, i)] = Sym(base + i)
		}
		checkSymbolsAgainst(t, tc.syms, oracle)
	}
	for i, n := range f.Names[:base] {
		if names[i] != n {
			t.Fatalf("shared name list changed at %d", i)
		}
	}
}
