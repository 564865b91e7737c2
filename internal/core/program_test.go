package core_test

// Differential tests pinning the compiled literal path (LiteralProgram
// over a frozen Snapshot's interned attribute arena, or an overlay view's
// mutable pairs) to the legacy map-based evaluation on GFD, which is retained as
// the oracle. Topology is irrelevant to literal semantics, so matches are
// arbitrary node vectors, not isomorphic embeddings — that exercises the
// evaluation lattice (missing attributes, unknown constants, tautologies)
// far more densely than real match sets would.

import (
	"fmt"
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// randomAttrGraph builds a graph whose nodes carry random subsets of a
// small attribute/value universe, so every combination of present/missing
// attributes and equal/unequal values occurs.
func randomAttrGraph(rng *rand.Rand, n int) *graph.Graph {
	attrs := []string{"a", "b", "c", "val"}
	labels := []string{"person", "city", "val"} // "val" doubles as a label:
	// attr names colliding with labels get out-of-lexicographic Sym codes,
	// which the arena's per-node sort must handle.
	g := graph.New(n, 0)
	for i := 0; i < n; i++ {
		t := graph.Attrs{}
		for _, a := range attrs {
			if rng.Intn(3) > 0 { // ~1/3 missing
				t[a] = fmt.Sprintf("v%d", rng.Intn(4))
			}
		}
		if len(t) == 0 {
			t = nil
		}
		g.AddNode(labels[rng.Intn(len(labels))], t)
	}
	return g
}

// randomRule builds a GFD over a k-node wildcard pattern with random
// constant/variable literals, including unknown attributes and constants
// the graph never mentions.
func randomRule(rng *rand.Rand, name string, k int) *core.GFD {
	q := pattern.New()
	vars := make([]pattern.Var, k)
	for i := 0; i < k; i++ {
		vars[i] = pattern.Var(fmt.Sprintf("x%d", i))
		q.AddNode(vars[i], pattern.Wildcard)
	}
	attrs := []string{"a", "b", "c", "val", "ghost"} // "ghost" never occurs in the graph
	randLit := func() core.Literal {
		x := vars[rng.Intn(k)]
		a := attrs[rng.Intn(len(attrs))]
		if rng.Intn(2) == 0 {
			c := fmt.Sprintf("v%d", rng.Intn(4))
			if rng.Intn(5) == 0 {
				c = "unknown-constant" // absent from every node: neverX/neverY short-circuit
			}
			return core.Const(x, a, c)
		}
		y := vars[rng.Intn(k)]
		return core.VarEq(x, a, y, attrs[rng.Intn(len(attrs))])
	}
	side := func() []core.Literal {
		ls := make([]core.Literal, rng.Intn(3)) // may be empty
		for i := range ls {
			ls[i] = randLit()
		}
		return ls
	}
	return core.MustNew(name, q, side(), side())
}

func randomMatch(rng *rand.Rand, k, n int) core.Match {
	m := make(core.Match, k)
	for i := range m {
		m[i] = graph.NodeID(rng.Intn(n))
	}
	return m
}

func TestLiteralProgramMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 5 + rng.Intn(20)
		g := randomAttrGraph(rng, n)
		snap := g.Freeze()
		for ri := 0; ri < 8; ri++ {
			k := 1 + rng.Intn(3)
			f := randomRule(rng, fmt.Sprintf("t%d-r%d", trial, ri), k)
			p := f.CompileLiterals(snap.Syms())
			for mi := 0; mi < 25; mi++ {
				h := randomMatch(rng, k, n)
				if got, want := p.SatisfiesX(snap, h), f.SatisfiesX(g, h); got != want {
					t.Fatalf("%s: SatisfiesX(%v) compiled=%v oracle=%v", f, h, got, want)
				}
				if got, want := p.SatisfiesY(snap, h), f.SatisfiesY(g, h); got != want {
					t.Fatalf("%s: SatisfiesY(%v) compiled=%v oracle=%v", f, h, got, want)
				}
				if got, want := p.IsViolation(snap, h), f.IsViolation(g, h); got != want {
					t.Fatalf("%s: IsViolation(%v) compiled=%v oracle=%v", f, h, got, want)
				}
			}
		}
	}
}

// guardLive evaluates every instruction of a guard on a full match and
// returns the members left alive — what the matcher has left after the
// last depth.
func guardLive(g *core.Guard, src *graph.Snapshot, h core.Match) uint64 {
	live := g.Live()
	for _, gi := range g.Insts() {
		if !gi.Holds(src, h) {
			live &^= gi.Bit()
		}
	}
	return live
}

// TestGuardMatchesSatisfiesX pins the guard lowering to the oracle: on a
// full match a rule's guard leaves its one member alive exactly when the
// map-based X holds, and a group guard over node-permuted members leaves
// member k alive exactly when rule k's X holds on the match read through
// its perm.
func TestGuardMatchesSatisfiesX(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(20)
		g := randomAttrGraph(rng, n)
		snap := g.Freeze()
		k := 1 + rng.Intn(3)
		rules := make([]*core.GFD, 3)
		progs := make([]*core.LiteralProgram, len(rules))
		perms := make([][]int, len(rules))
		for i := range rules {
			rules[i] = randomRule(rng, fmt.Sprintf("t%d-r%d", trial, i), k)
			progs[i] = rules[i].CompileLiterals(snap.Syms())
			perms[i] = rng.Perm(k)
		}
		group := core.GroupGuard(progs, perms)
		for mi := 0; mi < 25; mi++ {
			h := randomMatch(rng, k, n)
			var want uint64
			for i, f := range rules {
				if p := progs[i].Guard(); p != nil {
					if got := guardLive(p, snap, h) != 0; got != f.SatisfiesX(g, h) {
						t.Fatalf("%s: guard on %v keeps the rule %v, SatisfiesX %v", f, h, got, !got)
					}
				} else if len(f.X) != 0 {
					t.Fatalf("%s: non-empty X compiled to no guard", f)
				}
				rh := make(core.Match, k)
				for ri, gi := range perms[i] {
					rh[ri] = h[gi]
				}
				if f.SatisfiesX(g, rh) {
					want |= 1 << uint(i)
				}
			}
			if group == nil {
				// No instruction at all: every member that can fire has an
				// empty X, so some member holds on every match.
				if want == 0 {
					t.Fatalf("trial %d: nil group guard, yet no member's X holds on %v", trial, h)
				}
				continue
			}
			if got := guardLive(group, snap, h); got != want {
				t.Fatalf("trial %d: group guard on %v leaves members %b, oracle %b", trial, h, got, want)
			}
		}
	}
}

// TestLiteralProgramAttrIndex pins the patched-tuple path (an overlay's
// view, what the incremental detector evaluates against) to the
// oracle on a directly mutated twin, across attribute mutations that introduce previously-unseen values — including a rule
// constant that only starts occurring after compilation, the case
// InternLiterals exists for.
func TestLiteralProgramAttrIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(15)
		g := randomAttrGraph(rng, n)
		twin := g.Clone()
		ix := graph.NewOverlay(g)
		k := 1 + rng.Intn(3)
		rules := make([]*core.GFD, 6)
		progs := make([]*core.LiteralProgram, len(rules))
		for i := range rules {
			rules[i] = randomRule(rng, fmt.Sprintf("t%d-r%d", trial, i), k)
			rules[i].InternLiterals(ix.Syms())
		}
		for i, f := range rules {
			progs[i] = f.CompileLiterals(ix.Syms())
		}
		check := func(stage string) {
			for i, f := range rules {
				for mi := 0; mi < 20; mi++ {
					h := randomMatch(rng, k, n)
					if got, want := progs[i].IsViolation(ix.Snapshot, h), f.IsViolation(twin, h); got != want {
						t.Fatalf("%s %s: IsViolation(%v) index=%v oracle=%v", stage, f, h, got, want)
					}
				}
			}
		}
		check("initial")
		// Mutate: some updates write "unknown-constant", the value some
		// rules were compiled against before it existed anywhere.
		for u := 0; u < 12; u++ {
			v := graph.NodeID(rng.Intn(n))
			a := []string{"a", "b", "c", "val"}[rng.Intn(4)]
			val := fmt.Sprintf("v%d", rng.Intn(4))
			if rng.Intn(4) == 0 {
				val = "unknown-constant"
			}
			twin.SetAttr(v, a, val)
			ix.SetAttr(v, a, val)
		}
		check("after-mutation")
	}
}

// TestLiteralProgramZeroAlloc asserts steady-state literal checking stays
// off the allocator entirely: the per-match cost is binary searches over
// the interned arena and integer compares.
func TestLiteralProgramZeroAlloc(t *testing.T) {
	g := graph.New(4, 0)
	g.AddNode("person", graph.Attrs{"a": "v1", "b": "v2", "val": "v1"})
	g.AddNode("person", graph.Attrs{"a": "v1", "b": "v3", "val": "v2"})
	g.AddNode("city", graph.Attrs{"a": "v2"})
	g.AddNode("city", nil)
	q := pattern.New()
	q.AddNode("x", "person")
	q.AddNode("y", "city")
	f := core.MustNew("alloc", q,
		[]core.Literal{core.Const("x", "a", "v1"), core.VarEq("x", "val", "y", "a")},
		[]core.Literal{core.VarEq("x", "b", "y", "a"), core.Const("y", "a", "v2")},
	)
	snap := g.Freeze()
	p := f.CompileLiterals(snap.Syms())
	matches := []core.Match{{0, 2}, {1, 2}, {0, 3}, {1, 3}}
	sink := false
	allocs := testing.AllocsPerRun(200, func() {
		for _, h := range matches {
			sink = sink != p.IsViolation(snap, h)
			sink = sink != p.SatisfiesX(snap, h)
			sink = sink != p.SatisfiesY(snap, h)
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("steady-state literal checking allocates: %v allocs/op", allocs)
	}
}

// TestCompileLiteralsPerTable verifies that compiling against different
// tables yields table-specific programs (the unknown-constant
// short-circuit differs per graph).
func TestCompileLiteralsPerTable(t *testing.T) {
	q := pattern.New()
	q.AddNode("x", pattern.Wildcard)
	f := core.MustNew("cache", q, nil, []core.Literal{core.Const("x", "a", "rare")})

	g1 := graph.New(1, 0)
	g1.AddNode("n", graph.Attrs{"a": "rare"})
	s1 := g1.Freeze()
	g2 := graph.New(1, 0)
	g2.AddNode("n", graph.Attrs{"a": "common"})
	s2 := g2.Freeze()

	p1 := f.CompileLiterals(s1.Syms())
	h := core.Match{0}
	if p1.IsViolation(s1, h) {
		t.Fatal("x.a = rare holds on g1; no violation expected")
	}
	p2 := f.CompileLiterals(s2.Syms())
	if !p2.IsViolation(s2, h) {
		t.Fatal("x.a = rare fails on g2 (value absent): violation expected")
	}
}
