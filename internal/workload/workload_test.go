package workload

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// starPattern builds a hub with n satellites (radius 1 at the hub).
func starPattern(n int) *pattern.Pattern {
	p := pattern.New()
	hub := p.AddNode("x", "flight")
	for i := 0; i < n; i++ {
		s := p.AddNode(pattern.Var(string(rune('a'+i))), "sat")
		p.AddEdge(hub, s, "e")
	}
	return p
}

func twoFlightStars() *pattern.Pattern {
	p := pattern.New()
	x := p.AddNode("x", "flight")
	x1 := p.AddNode("x1", "id")
	p.AddEdge(x, x1, "number")
	y := p.AddNode("y", "flight")
	y1 := p.AddNode("y1", "id")
	p.AddEdge(y, y1, "number")
	return p
}

func flightGraph(n int) *graph.Graph {
	g := graph.New(0, 0)
	for i := 0; i < n; i++ {
		f := g.AddNode("flight", graph.Attrs{"val": string(rune('a' + i))})
		id := g.AddNode("id", graph.Attrs{"val": "FL"})
		g.MustAddEdge(f, id, "number")
	}
	return g
}

func TestComputePivotSingleComponent(t *testing.T) {
	p := starPattern(3)
	pv := ComputePivot(p)
	if pv.Arity() != 1 {
		t.Fatalf("arity = %d", pv.Arity())
	}
	if pv.Vars[0] != 0 || pv.Radii[0] != 1 {
		t.Errorf("pivot = (%d, r=%d), want hub (0, r=1)", pv.Vars[0], pv.Radii[0])
	}
	if pv.Symmetric() {
		t.Error("one component cannot be symmetric")
	}
}

func TestComputePivotTwoSymmetricComponents(t *testing.T) {
	pv := ComputePivot(twoFlightStars())
	if pv.Arity() != 2 {
		t.Fatalf("arity = %d, want 2", pv.Arity())
	}
	if !pv.Symmetric() {
		t.Error("two flight stars are isomorphic components")
	}
	// Example 9: PV(ϕ1) = ((x,1),(y,1)) — here stars of radius 1.
	if pv.Radii[0] != 1 || pv.Radii[1] != 1 {
		t.Errorf("radii = %v", pv.Radii)
	}
}

func TestComputePivotAsymmetricComponents(t *testing.T) {
	p := pattern.New()
	x := p.AddNode("x", "flight")
	x1 := p.AddNode("x1", "id")
	p.AddEdge(x, x1, "number")
	p.AddNode("y", "country") // isolated second component
	pv := ComputePivot(p)
	if pv.Symmetric() {
		t.Error("different components must not be symmetric")
	}
	if pv.Radii[1] != 0 {
		t.Errorf("isolated node radius = %d, want 0", pv.Radii[1])
	}
}

// TestComputePivotPrefersLabelledOverWildcard: in Fig. 7's GFD 2 the
// wildcard entity e and the class c both have radius 1. The pivot is c —
// a label class, not every node of the graph — though e comes first.
func TestComputePivotPrefersLabelledOverWildcard(t *testing.T) {
	p := pattern.New()
	e := p.AddNode("e", pattern.Wildcard)
	c := p.AddNode("c", "class")
	cp := p.AddNode("cp", "class")
	p.AddEdge(e, c, "type")
	p.AddEdge(e, cp, "type")
	p.AddEdge(c, cp, "disjoint_with")
	if pv := ComputePivot(p); pv.Vars[0] != c || pv.Radii[0] != 1 {
		t.Errorf("min-radius pivot = %d r=%d, want the labelled %d r=1", pv.Vars[0], pv.Radii[0], c)
	}
}

// numberedFlight is a flight with its id: the star every flight of
// flightGraph has.
func numberedFlight() *pattern.Pattern {
	q := pattern.New()
	q.AddEdge(q.AddNode("x", "flight"), q.AddNode("x1", "id"), "number")
	return q
}

// TestCandidates: a pivot's candidates are the members of its class at
// which its star is present — every flight for a flight with its id, on
// either component of two such stars, none for a flight with an edge no
// flight has — and a lone wildcard pivot admits every node.
func TestCandidates(t *testing.T) {
	g := flightGraph(3)
	snap := g.Freeze()
	if got := ComputePivot(numberedFlight()).CandidatesIn(snap, 0); len(got) != 3 {
		t.Errorf("flight candidates = %v, want all 3", got)
	}
	two := ComputePivot(twoFlightStars())
	for i := range two.Arity() {
		if got := two.CandidatesIn(snap, i); len(got) != 3 {
			t.Errorf("component %d of two flight stars: candidates %v, want all 3", i, got)
		}
	}
	if got := ComputePivot(starPattern(1)).CandidatesIn(snap, 0); len(got) != 0 {
		t.Errorf("flights with an e edge to a sat: %v, want none", got)
	}
	wq := pattern.New()
	wq.AddNode("x", pattern.Wildcard)
	if got := ComputePivot(wq).CandidatesIn(snap, 0); len(got) != g.NumNodes() {
		t.Errorf("wildcard candidates = %d, want %d", len(got), g.NumNodes())
	}
}

// seededIn lowers pv onto snap's table, each seeded component keeping the
// holders of attr = one of vals (a name or value the table never interned
// seeds nothing, as a dead guard member does), and returns component i's
// candidates over its whole class.
func seededIn(snap *graph.Snapshot, pv *Pivot, i int, attr string, vals ...string) []graph.NodeID {
	syms := snap.Syms()
	seeds := []graph.AttrPair{}
	for _, c := range vals {
		if a, v := syms.Lookup(attr), syms.Lookup(c); a != graph.NoSym && v != graph.NoSym {
			seeds = append(seeds, graph.AttrPair{Name: a, Val: v})
		}
	}
	lp := pv.Lower(syms, func(int) []graph.AttrPair { return seeds })
	return lp.Candidates(snap, i, Range{0, lp.ClassLen(snap, i)})
}

// TestSeedFiltersCandidates: seeding moves the component's pivot to the
// seeded node at that node's eccentricity and keeps only the class members
// whose tuple holds a seed; an empty seed list (every constant absent from
// the symbol table) admits nothing, an unseeded component ignores the
// seeds, and a seeded wildcard filters every node.
func TestSeedFiltersCandidates(t *testing.T) {
	snap := flightGraph(4).Freeze() // flights "a".."d", each with id "FL"
	q := twoFlightStars()
	pv := ComputePivot(q)
	pv.Seed(1) // x1, the first star's id
	if pv.Vars[0] != 1 || pv.Radii[0] != 1 || pv.Vars[1] != 2 {
		t.Fatalf("seeded x1: pivots %v radii %v", pv.Vars, pv.Radii)
	}
	if got := seededIn(snap, pv, 0, "val", "FL"); len(got) != 4 {
		t.Fatalf("ids with val FL: %v", got)
	}
	if got, all := seededIn(snap, pv, 1, "val", "never"), pv.CandidatesIn(snap, 1); !slices.Equal(got, all) {
		t.Fatalf("unseeded component under seeds: %v, want %v", got, all)
	}
	star := ComputePivot(numberedFlight())
	star.Seed(0)
	got := seededIn(snap, star, 0, "val", "b", "d", "never")
	if len(got) != 2 || snap.Label(got[0]) != snap.Syms().Lookup("flight") {
		t.Fatalf("flights with val b or d: %v", got)
	}
	for _, kv := range [][2]string{{"val", "never"}, {"ghost", "b"}} {
		if got := seededIn(snap, star, 0, kv[0], kv[1]); len(got) != 0 {
			t.Fatalf("seeds %s = %s admit %v", kv[0], kv[1], got)
		}
	}
	wq := pattern.New()
	wq.AddNode("x", pattern.Wildcard)
	wild := ComputePivot(wq)
	wild.Seed(0)
	if got := seededIn(snap, wild, 0, "val", "FL", "a"); len(got) != 5 {
		t.Fatalf("any node with val FL or a: %v", got)
	}
}

// TestSymmetricPivotsCorrespond: the second of two isomorphic components
// pivots on the image of the first's pivot, whatever order the pattern
// lists their nodes in, so both pivots have one star.
func TestSymmetricPivotsCorrespond(t *testing.T) {
	q := pattern.New()
	x := q.AddNode("x", "flight")
	q.AddEdge(x, q.AddNode("x1", "id"), "number")
	y1 := q.AddNode("y1", "id")
	q.AddEdge(q.AddNode("y", "flight"), y1, "number")
	if pv := ComputePivot(q); !pv.Symmetric() || pv.Vars[0] != x || pv.Vars[1] != 3 || pv.Radii[0] != pv.Radii[1] {
		t.Fatalf("pivots %v radii %v symmetric %v; want the two flights", pv.Vars, pv.Radii, pv.Symmetric())
	}
}

func TestUnitBlock(t *testing.T) {
	g := flightGraph(2)
	snap := g.Freeze()
	pv := ComputePivot(numberedFlight()).Lower(snap.Syms(), nil)
	// A one-member range at the first candidate's class position.
	first := slices.Index(pv.Class(snap, 0), pv.CandidatesIn(snap, 0)[0])
	cands := [][]graph.NodeID{pv.Candidates(snap, 0, Range{first, first + 1})}
	if block := snap.Neighborhood(cands[0][0], pv.Radii[0]); len(cands[0]) != 1 || len(block) != 2 {
		t.Errorf("block of %v = %v, want flight + id", cands[0], block)
	}
}

// --- Balancing ------------------------------------------------------------

func TestBalanceLPTExample12(t *testing.T) {
	// The paper's Example 12: 9 units sized {22,22,26,26,30,30,24,28,28}
	// over 3 workers must balance to loads near 236/3 ≈ 79.
	weights := []int{22, 22, 26, 26, 30, 30, 24, 28, 28}
	a := BalanceLPT(weights, 3)
	span := a.Makespan(weights)
	if span > 82 {
		t.Errorf("LPT makespan = %d, want ≤ 82 (paper's partition reaches 82)", span)
	}
	// All units assigned exactly once.
	seen := make(map[int]bool)
	for _, w := range a {
		for _, u := range w {
			if seen[u] {
				t.Fatalf("unit %d assigned twice", u)
			}
			seen[u] = true
		}
	}
	if len(seen) != len(weights) {
		t.Fatalf("assigned %d of %d units", len(seen), len(weights))
	}
}

func TestBalanceLPTApproximationProperty(t *testing.T) {
	// LPT is a 2-approximation: makespan ≤ 2 · OPT and OPT ≥ total/n.
	f := func(raw []uint8, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(nRaw%8) + 1
		weights := make([]int, len(raw))
		total, max := 0, 0
		for i, r := range raw {
			weights[i] = int(r) + 1
			total += weights[i]
			if weights[i] > max {
				max = weights[i]
			}
		}
		lower := total / n
		if max > lower {
			lower = max
		}
		span := int(BalanceLPT(weights, n).Makespan(weights))
		return span <= 2*lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBalanceRandomAssignsEverything(t *testing.T) {
	weights := make([]int, 50)
	for i := range weights {
		weights[i] = i + 1
	}
	a := BalanceRandom(weights, 4, 42)
	count := 0
	for _, w := range a {
		count += len(w)
	}
	if count != 50 {
		t.Errorf("random assigned %d of 50", count)
	}
	// Deterministic for a seed.
	b := BalanceRandom(weights, 4, 42)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Error("random assignment must be deterministic per seed")
		}
	}
}

func TestBalanceBiCriteriaPrefersLocalWorker(t *testing.T) {
	// Two units, two workers; unit 0 is free on worker 1 but costly on 0.
	weights := []int{10, 10}
	cc := func(unit, worker int) int64 {
		if unit == 0 && worker == 0 {
			return 1 << 20
		}
		if unit == 1 && worker == 1 {
			return 1 << 20
		}
		return 0
	}
	a := BalanceBiCriteria(weights, 2, cc, 1.0)
	if len(a[0]) != 1 || len(a[1]) != 1 {
		t.Fatalf("assignment = %v", a)
	}
	if a[1][0] != 0 || a[0][0] != 1 {
		t.Errorf("communication cost ignored: %v", a)
	}
}

func TestBalanceBiCriteriaZeroCommEqualsLPT(t *testing.T) {
	weights := []int{22, 22, 26, 26, 30, 30, 24, 28, 28}
	free := func(int, int) int64 { return 0 }
	a := BalanceBiCriteria(weights, 3, free, 1.0)
	b := BalanceLPT(weights, 3)
	if a.Makespan(weights) != b.Makespan(weights) {
		t.Errorf("zero-cost bi-criteria should match LPT makespan: %d vs %d",
			a.Makespan(weights), b.Makespan(weights))
	}
}

// balanceRef is the comparison-sort, append-grown greedy the flat one
// replaced: descending weight, ties by ascending index, each unit to the
// worker of least resulting load.
func balanceRef(weights []int, n int, cc CommCoster, commWeight float64) Assignment {
	order := make([]int, len(weights))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if weights[order[a]] != weights[order[b]] {
			return weights[order[a]] > weights[order[b]]
		}
		return order[a] < order[b]
	})
	out := make(Assignment, n)
	loads := make([]float64, n)
	for _, u := range order {
		best, bestCost := 0, 0.0
		for w := 0; w < n; w++ {
			cost := loads[w] + float64(weights[u])
			if cc != nil {
				cost += commWeight * float64(cc(u, w))
			}
			if w == 0 || cost < bestCost {
				best, bestCost = w, cost
			}
		}
		out[best] = append(out[best], u)
		loads[best] += float64(weights[u])
		if cc != nil {
			loads[best] += commWeight * float64(cc(u, best))
		}
	}
	return out
}

// TestBalanceMatchesReference pins the radix-ordered, pre-sized greedy to
// the reference assignment, worker by worker and position by position:
// heavy ties, weights wider than one radix digit and than 32 bits, zero
// and negative weights, more workers than units, and no units at all.
func TestBalanceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	draw := map[string]func() int{
		"ties":     func() int { return 1 + rng.Intn(4) },
		"blocks":   func() int { return 1 + rng.Intn(100000) },
		"wide":     func() int { return rng.Intn(1 << 40) },
		"signed":   func() int { return rng.Intn(2001) - 1000 },
		"constant": func() int { return 7 },
	}
	cc := func(unit, worker int) int64 { return int64((unit*31 + worker*17) % 97) }
	for name, next := range draw {
		for _, size := range []int{0, 1, 2, 5, 300, 5000} {
			weights := make([]int, size)
			for i := range weights {
				weights[i] = next()
			}
			for _, n := range []int{1, 2, 5, 9} {
				if got, want := BalanceLPT(weights, n), balanceRef(weights, n, nil, 0); !sameAssignment(got, want) {
					t.Fatalf("%s: LPT of %d units over %d workers diverges from the reference", name, size, n)
				}
				if got, want := BalanceBiCriteria(weights, n, cc, 0.5), balanceRef(weights, n, cc, 0.5); !sameAssignment(got, want) {
					t.Fatalf("%s: bi-criteria of %d units over %d workers diverges from the reference", name, size, n)
				}
			}
		}
	}
}

func sameAssignment(a, b Assignment) bool {
	return slices.EqualFunc(a, b, func(x, y []int) bool { return slices.Equal(x, y) })
}

// TestAssignmentListsDoNotAlias guards the shared backing array: growing
// one worker's list must not write into its neighbour's.
func TestAssignmentListsDoNotAlias(t *testing.T) {
	a := BalanceLPT([]int{5, 4, 3, 2}, 2)
	want := slices.Clone(a[1])
	a[0] = append(a[0], 99)
	if !slices.Equal(a[1], want) {
		t.Fatalf("appending to worker 0's list clobbered worker 1's: %v, want %v", a[1], want)
	}
}
