package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func randomTestGraph(rng *rand.Rand, n, e int) *Graph {
	g := New(n, e)
	labels := []string{"a", "b", "c"}
	for i := 0; i < n; i++ {
		var t Attrs
		if rng.Intn(2) == 0 {
			t = Attrs{"val": fmt.Sprintf("v%d", rng.Intn(5))}
		}
		g.AddNode(labels[rng.Intn(len(labels))], t)
	}
	seen := map[[3]int]bool{}
	for i := 0; i < e; i++ {
		from, to := rng.Intn(n), rng.Intn(n)
		l := rng.Intn(3)
		k := [3]int{from, to, l}
		if seen[k] {
			continue // honor the no-duplicate-edge invariant
		}
		seen[k] = true
		g.MustAddEdge(NodeID(from), NodeID(to), labels[l])
	}
	return g
}

// TestBlockIntoMatchesNeighborhoodUnion pins the EpochSet block assembly
// (reused across units, the engines' hot path) to the reference union of
// independent Neighborhood traversals, including overlapping multi-pivot
// blocks where a shared visited mask would wrongly truncate the BFS.
func TestBlockIntoMatchesNeighborhoodUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 8 + rng.Intn(30)
		g := randomTestGraph(rng, n, 2*n)
		s := g.Freeze()
		set := NewEpochSet(n) // one set reused across iterations: exercises Reset
		for it := 0; it < 10; it++ {
			k := 1 + rng.Intn(3)
			var want []NodeID
			set.Reset()
			for i := 0; i < k; i++ {
				start := NodeID(rng.Intn(n))
				radius := rng.Intn(4)
				want = append(want, s.Neighborhood(start, radius)...)
				s.BlockInto(set, start, radius)
			}
			slices.Sort(want)
			want = slices.Compact(want)
			got := slices.Sorted(slices.Values(set.Members()))
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d it %d: block %v, want %v", trial, it, got, want)
			}
			for _, v := range want {
				if !set.Contains(v) {
					t.Fatalf("trial %d it %d: node %d missing from block", trial, it, v)
				}
			}
		}
	}
}

func TestEpochSetBasics(t *testing.T) {
	s := NewEpochSet(5)
	if !s.Add(3) || s.Add(3) {
		t.Fatal("Add should report newness exactly once")
	}
	s.Add(1)
	if !s.Contains(3) || !s.Contains(1) || s.Contains(0) {
		t.Fatal("membership wrong")
	}
	if s.Contains(99) {
		t.Fatal("out-of-range id must not be a member")
	}
	if len(s.Members()) != 2 {
		t.Fatalf("%d members, want 2", len(s.Members()))
	}
	s.Reset()
	if s.Contains(3) || len(s.Members()) != 0 {
		t.Fatal("Reset did not empty the set")
	}
}

// TestSnapshotAttrArena exercises the interned arena directly, including
// an attribute name that collides with a node label (its Sym code is out
// of lexicographic order relative to other attribute names, so the
// per-node sort by code is what keeps the binary search correct).
func TestSnapshotAttrArena(t *testing.T) {
	g := New(3, 0)
	// "zz" is interned first as a node label, then reused as an attr name:
	// its code is smaller than "aa"'s even though "aa" < "zz" as strings.
	g.AddNode("zz", Attrs{"aa": "1", "zz": "2", "mm": "3"})
	g.AddNode("person", Attrs{"zz": "9"})
	g.AddNode("person", nil)
	s := g.Freeze()
	for _, tc := range []struct {
		v    NodeID
		a    string
		want string
		ok   bool
	}{
		{0, "aa", "1", true}, {0, "zz", "2", true}, {0, "mm", "3", true},
		{1, "zz", "9", true}, {1, "aa", "", false},
		{2, "zz", "", false}, {0, "ghost", "", false},
	} {
		got, ok := s.Attr(tc.v, tc.a)
		if got != tc.want || ok != tc.ok {
			t.Errorf("Attr(%d, %q) = (%q, %v), want (%q, %v)", tc.v, tc.a, got, ok, tc.want, tc.ok)
		}
	}
	// Pairs must be sorted by Name code for every node.
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		ps := s.AttrPairs(v)
		for i := 1; i < len(ps); i++ {
			if ps[i-1].Name >= ps[i].Name {
				t.Fatalf("node %d pairs not strictly sorted by Name: %v", v, ps)
			}
		}
	}
	if _, ok := s.AttrSym(0, NoSym); ok {
		t.Fatal("AttrSym(NoSym) must miss")
	}
}

// TestCloneSnapshotIsolation: same audit for Clone.
func TestCloneSnapshotIsolation(t *testing.T) {
	g := New(1, 0)
	g.AddNode("n", Attrs{"k": "orig"})
	snap := g.Freeze()
	c := g.Clone()
	c.SetAttr(0, "k", "changed")
	if g.Freeze() != snap {
		t.Fatal("clone mutation invalidated the original's snapshot")
	}
	if v, _ := snap.Attr(0, "k"); v != "orig" {
		t.Fatalf("frozen arena observed clone mutation: %q", v)
	}
	if cv, _ := c.Freeze().Attr(0, "k"); cv != "changed" {
		t.Fatalf("clone snapshot stale: %q", cv)
	}
}
