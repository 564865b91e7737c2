package graph_test

import (
	"fmt"
	"testing"

	"gfd/internal/gen"
	"gfd/internal/graph"
)

// BenchmarkSymbolsLookup prices one Lookup on the symbol table of the
// DBpedia-like scale-6000 graph (kb_cold_rep's) adopted from its flat
// image, as a cold open adopts it: a hit on the unchanged table (every
// name in turn, each a directory search), a hit on a name interned after
// adoption (the table has grown and is hashed), and a miss on the
// unchanged table.
// It prints, it gates nothing.
func BenchmarkSymbolsLookup(b *testing.B) {
	f, err := gen.DBpediaLike(gen.DatasetConfig{Scale: 6000, Seed: 1}).Freeze().Flat()
	if err != nil {
		b.Fatal(err)
	}
	adopt := func() *graph.Symbols {
		s, err := graph.AdoptFlat(f)
		if err != nil {
			b.Fatal(err)
		}
		return s.Syms()
	}
	const tail = 1024
	var names, grown, absent []string
	syms := adopt()
	for c := 0; c < syms.Len(); c++ {
		names = append(names, syms.Name(graph.Sym(c)))
	}
	for i := 0; i < tail; i++ {
		grown = append(grown, fmt.Sprintf("grown-%d", i))
		absent = append(absent, fmt.Sprintf("absent-%d", i))
	}
	grownSyms := adopt()
	for _, n := range grown {
		grownSyms.Intern(n)
	}
	for _, tc := range []struct {
		name  string
		syms  *graph.Symbols
		names []string
		hit   bool
	}{
		{"adopted-hit", adopt(), names, true},
		{"grown-tail-hit", grownSyms, grown, true},
		{"miss", adopt(), absent, false},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if got := tc.syms.Lookup(tc.names[i%len(tc.names)]); (got != graph.NoSym) != tc.hit {
					b.Fatalf("Lookup(%q) = %d", tc.names[i%len(tc.names)], got)
				}
			}
		})
	}
}
