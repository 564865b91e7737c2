package pattern

import "gfd/internal/graph"

// CompiledEdge is a pattern edge with its label resolved to a symbol code
// of a Snapshot's table.
type CompiledEdge struct {
	From, To int32
	Label    graph.Sym
}

// Compiled is a pattern lowered onto a frozen graph's symbol table: node
// and edge labels become dense graph.Sym codes, so the matcher's inner
// loop compares integers — including the wildcard check (WildcardSym) —
// instead of strings. Labels the snapshot never mentions compile to NoSym,
// which matches nothing (the pattern then has no matches, exactly as with
// string comparison).
//
// A Compiled is tied to the Symbols table it was compiled against and to
// the names that table held at the time: a label interned later still
// lowers to NoSym here. Its one holder is a match.Plans, one per symbol
// table (a validate.Bundle's rule side, or a match.NewMatcher's own), which
// interns a growing table's labels before it lowers.
type Compiled struct {
	Q        *Pattern
	NodeSyms []graph.Sym
	Edges    []CompiledEdge
}

// InternInto interns every non-wildcard node and edge label of q into
// syms — the pattern analogue of GFD.InternLiterals, required before
// compiling against a growing table (graph.Overlay): a label lowered to
// NoSym must mean "matches nothing", which only holds when the table is
// the sole authority on the label universe.
func InternInto(q *Pattern, syms *graph.Symbols) {
	for _, n := range q.Nodes {
		if n.Label != Wildcard {
			syms.Intern(n.Label)
		}
	}
	for _, e := range q.Edges {
		if e.Label != Wildcard {
			syms.Intern(e.Label)
		}
	}
}

// Compile lowers q onto syms. It only reads the table (Lookup, never
// Intern), so compiling against a shared snapshot is safe from concurrent
// workers.
func Compile(q *Pattern, syms *graph.Symbols) *Compiled {
	c := &Compiled{
		Q:        q,
		NodeSyms: make([]graph.Sym, len(q.Nodes)),
		Edges:    make([]CompiledEdge, len(q.Edges)),
	}
	for i, n := range q.Nodes {
		c.NodeSyms[i] = LowerLabel(n.Label, syms)
	}
	for i, e := range q.Edges {
		c.Edges[i] = CompiledEdge{From: int32(e.From), To: int32(e.To), Label: LowerLabel(e.Label, syms)}
	}
	return c
}

// LowerLabel lowers one pattern label onto syms: WildcardSym for the
// wildcard, NoSym for a name the table never interned.
func LowerLabel(label string, syms *graph.Symbols) graph.Sym {
	if label == Wildcard {
		return graph.WildcardSym
	}
	return syms.Lookup(label)
}

// LabelMatchesSym is LabelMatches over interned codes: WildcardSym matches
// anything, otherwise code equality. NoSym pattern labels match nothing.
func LabelMatchesSym(patternSym, concrete graph.Sym) bool {
	return patternSym == graph.WildcardSym || patternSym == concrete
}
