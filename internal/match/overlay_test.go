// Differential tests for the matcher over a graph.Overlay: enumeration
// against the patched view must equal the slice-backed reference path on
// the same mutated graph, and striping must not change any match set while
// keeping striped enumeration allocation-free.
package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	"gfd/internal/core"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// mutateThroughOverlay applies a deterministic batch of updates through
// the overlay so graph and patches stay in lockstep.
func mutateThroughOverlay(ov *graph.Overlay, rng *rand.Rand, steps int) {
	g := ov.Graph()
	labels := g.Labels()
	for i := 0; i < steps; i++ {
		switch rng.Intn(3) {
		case 0:
			ov.AddNode(labels[rng.Intn(len(labels))], graph.Attrs{"val": fmt.Sprintf("nv%d", i)})
		case 1:
			from := graph.NodeID(rng.Intn(ov.NumNodes()))
			to := graph.NodeID(rng.Intn(ov.NumNodes()))
			if from != to && !g.HasEdge(from, to, "patched") {
				ov.MustAddEdge(from, to, "patched")
			}
		default:
			ov.SetAttr(graph.NodeID(rng.Intn(ov.NumNodes())), "val", fmt.Sprintf("sv%d", i))
		}
	}
}

func TestDifferentialOverlayMatcher(t *testing.T) {
	for name, g := range diffGraphs() {
		rng := rand.New(rand.NewSource(77))
		ov := graph.NewOverlay(g)
		m := match.NewMatcher(ov)
		for round := 0; round < 6; round++ {
			mutateThroughOverlay(ov, rng, 5+rng.Intn(10))
			for trial := 0; trial < 8; trial++ {
				q := randomPattern(g, rng, 2+rng.Intn(3), trial%2 == 1)
				opts := match.Options{}
				switch trial % 4 {
				case 1: // pin node 0 to a candidate, if any
					if cands := g.NodesWithLabel(q.Nodes[0].Label); len(cands) > 0 {
						opts.Pins = pinTo(0, cands[rng.Intn(len(cands))])
					}
				case 2: // the unit path: node 0 pinned, its neighbour 1 striped
					if cands := g.NodesWithLabel(q.Nodes[0].Label); len(cands) > 0 {
						opts.Pins = pinTo(0, cands[rng.Intn(len(cands))])
					}
					opts.StripeNode, opts.StripeMod, opts.StripeRem = 1, 2, rng.Intn(2)
				case 3: // stripe a random node
					opts.StripeNode = rng.Intn(q.NumNodes())
					opts.StripeMod = 2 + rng.Intn(3)
					opts.StripeRem = rng.Intn(opts.StripeMod)
				}
				legacy := matchKeys(match.All(g, q, opts))
				var overlaid []core.Match
				m.Enumerate(q, opts, func(h core.Match) bool {
					overlaid = append(overlaid, append(core.Match(nil), h...))
					return true
				})
				got := matchKeys(overlaid)
				if len(legacy) != len(got) {
					t.Fatalf("%s round %d trial %d: legacy found %d matches, overlay %d",
						name, round, trial, len(legacy), len(got))
				}
				for i := range legacy {
					if legacy[i] != got[i] {
						t.Fatalf("%s round %d trial %d: match sets differ at %d: %s vs %s",
							name, round, trial, i, legacy[i], got[i])
					}
				}
			}
		}
	}
}

// TestOverlayMatcherSeesNewLabel: one Matcher kept over the live overlay
// enumerates a pattern whose labels the symbol table has never interned —
// they lower to NoSym and match nothing — and, after updates insert a node
// and an edge carrying those labels, finds them. The matcher's Plans
// interns a pattern's labels before lowering it on a patched view, so the
// lowering made before the updates already holds their codes.
func TestOverlayMatcherSeesNewLabel(t *testing.T) {
	g := graph.New(0, 0)
	owner := g.AddNode("person", nil)
	g.AddNode("person", nil)
	ov := graph.NewOverlay(g)
	m := match.NewMatcher(ov)

	lone := pattern.New()
	lone.AddNode("y", "gadget")
	owns := pattern.New()
	x := owns.AddNode("x", "person")
	y := owns.AddNode("y", "gadget")
	owns.AddEdge(x, y, "owns")

	if ov.Syms().Lookup("gadget") != graph.NoSym || ov.Syms().Lookup("owns") != graph.NoSym {
		t.Fatal("fixture: the pattern's labels must be absent from the table")
	}
	for _, q := range []*pattern.Pattern{lone, owns} {
		if n := m.Count(q, match.Options{}); n != 0 {
			t.Fatalf("%v: %d matches before any gadget exists", q, n)
		}
	}
	gadget := ov.AddNode("gadget", nil)
	if got := m.All(lone, match.Options{}); len(got) != 1 || got[0][0] != gadget {
		t.Fatalf("after AddNode: lone gadget matches %v, want [[%d]]", got, gadget)
	}
	if n := m.Count(owns, match.Options{}); n != 0 {
		t.Fatalf("%d owns matches before the edge exists", n)
	}
	ov.MustAddEdge(owner, gadget, "owns")
	if got := m.All(owns, match.Options{}); len(got) != 1 || got[0][x] != owner || got[0][y] != gadget {
		t.Fatalf("after AddEdge: owns matches %v, want [[%d %d]]", got, owner, gadget)
	}
}

// TestStripedClassFastPath: a pattern whose striped node seeds the
// enumeration (no pin, no matched neighbor) scans the whole label class,
// and feasible's residue filter alone must make the stripes partition the
// unstriped match set exactly.
func TestStripedClassFastPath(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 60, Seed: 13})
	q := pattern.New()
	q.AddNode("c", "city") // single striped node: candidates come from the class
	snap := g.Freeze()
	all := match.NewMatcher(snap).Count(q, match.Options{})
	if all == 0 {
		t.Fatal("no city nodes; test is vacuous")
	}
	for _, mod := range []int{2, 3, 5} {
		total := 0
		for rem := 0; rem < mod; rem++ {
			total += match.NewMatcher(snap).Count(q, match.Options{StripeNode: 0, StripeMod: mod, StripeRem: rem})
		}
		if total != all {
			t.Fatalf("mod %d: stripes sum to %d, unstriped %d", mod, total, all)
		}
	}
}

// TestMatcherZeroAllocStriped extends the steady-state allocation
// guarantee to striped enumeration: the residue is a per-candidate check,
// so after warm-up striped enumeration allocates nothing.
func TestMatcherZeroAllocStriped(t *testing.T) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: 80, Seed: 1})
	q := pattern.New()
	f := q.AddNode("f", "flight")
	id := q.AddNode("i", "id")
	q.AddEdge(f, id, "number")

	m := match.NewMatcher(g.Freeze())
	count := 0
	yield := func(core.Match) bool { count++; return true }
	// Pick a residue that has matches (warm-up doubles as the search).
	var opts match.Options
	for rem := 0; rem < 4 && count == 0; rem++ {
		opts = match.Options{StripeNode: 0, StripeMod: 4, StripeRem: rem}
		m.Enumerate(q, opts, yield) // warm-up: compile, buffers, plan
	}
	if count == 0 {
		t.Fatal("workload has no matches; allocation test is vacuous")
	}
	allocs := testing.AllocsPerRun(20, func() {
		m.Enumerate(q, opts, yield)
	})
	if allocs != 0 {
		t.Fatalf("steady-state striped Enumerate allocated %.1f times per run, want 0", allocs)
	}

	// The unit path proper: pivot pinned, stripe on the other node, guard
	// armed — one enumeration per unit, none allocating.
	snap := m.Topo()
	flights := g.NodesWithLabel("flight")
	first, _ := g.Attr(flights[0], "val")
	rule := core.MustNew("r", q, []core.Literal{core.VarEq("f", "val", "f", "val"), core.Const("f", "val", first)}, nil)
	unit := match.Options{
		Pins:       pinTo(f, 0),
		StripeNode: id, StripeMod: 2,
		Guard: rule.CompileLiterals(snap.Syms()).Guard(),
	}
	run := func() {
		for _, v := range flights {
			unit.Pins[0].To[0] = v
			m.Enumerate(q, unit, yield)
		}
	}
	count = 0
	for rem := 0; rem < 2; rem++ { // warm-up: the guarded, pinned, striped plan
		unit.StripeRem = rem
		run()
	}
	if count == 0 {
		t.Fatal("no guarded unit match; allocation test is vacuous")
	}
	if allocs := testing.AllocsPerRun(5, run); allocs != 0 {
		t.Fatalf("steady-state guarded unit enumeration allocated %.1f times per run, want 0", allocs)
	}
}
