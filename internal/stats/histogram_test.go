package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gfd/internal/gen"
	"gfd/internal/graph"
)

func TestEquiDepthBasic(t *testing.T) {
	rs := EquiDepth(10, 3)
	if len(rs) != 3 {
		t.Fatalf("ranges = %d", len(rs))
	}
	// Sizes 4,3,3 covering [0,10).
	if rs[0].Len() != 4 || rs[1].Len() != 3 || rs[2].Len() != 3 {
		t.Errorf("range sizes = %d,%d,%d", rs[0].Len(), rs[1].Len(), rs[2].Len())
	}
	if rs[0].Lo != 0 || rs[2].Hi != 10 {
		t.Errorf("coverage = [%d,%d)", rs[0].Lo, rs[2].Hi)
	}
}

func TestEquiDepthEdgeCases(t *testing.T) {
	if EquiDepth(0, 3) != nil {
		t.Error("empty input yields no ranges")
	}
	if EquiDepth(5, 0) != nil {
		t.Error("zero ranges yields nil")
	}
	if got := EquiDepth(2, 5); len(got) != 2 {
		t.Errorf("m > n must clamp: %d ranges", len(got))
	}
}

func TestEquiDepthCoversExactlyProperty(t *testing.T) {
	f := func(nRaw, mRaw uint16) bool {
		n, m := int(nRaw%5000)+1, int(mRaw%64)+1
		rs := EquiDepth(n, m)
		pos := 0
		for _, r := range rs {
			if r.Lo != pos || r.Hi < r.Lo {
				return false
			}
			pos = r.Hi
		}
		if pos != n {
			return false
		}
		// Balance: sizes differ by at most 1.
		min, max := n, 0
		for _, r := range rs {
			if r.Len() < min {
				min = r.Len()
			}
			if r.Len() > max {
				max = r.Len()
			}
		}
		return max-min <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquiDepthByValue(t *testing.T) {
	g := graph.New(0, 0)
	var ids []graph.NodeID
	for i := 0; i < 9; i++ {
		ids = append(ids, g.AddNode("n", graph.Attrs{"val": fmt.Sprintf("%d", 9-i)}))
	}
	// One node missing the attribute sorts first.
	ids = append(ids, g.AddNode("n", nil))
	sorted, rs := EquiDepthByValue(g.Freeze(), ids, "val", 2)
	if len(sorted) != 10 || len(rs) != 2 {
		t.Fatalf("sorted=%d ranges=%d", len(sorted), len(rs))
	}
	if sorted[0] != ids[9] {
		t.Error("missing-attribute node must sort first")
	}
	// Values ascend lexicographically afterwards.
	prev := ""
	for _, id := range sorted[1:] {
		v, _ := g.Attr(id, "val")
		if v < prev {
			t.Errorf("sort order broken at %q < %q", v, prev)
		}
		prev = v
	}
}

// equiDepthByValueRef is the string-keyed ordering the flat one replaced,
// kept as the reference for the ordering contract: missing attribute
// first, then value string order, then ID.
func equiDepthByValueRef(g *graph.Graph, candidates []graph.NodeID, attr string) []graph.NodeID {
	sorted := append([]graph.NodeID(nil), candidates...)
	sort.Slice(sorted, func(i, j int) bool {
		vi, oki := g.Attr(sorted[i], attr)
		vj, okj := g.Attr(sorted[j], attr)
		switch {
		case oki != okj:
			return !oki
		case vi != vj:
			return vi < vj
		default:
			return sorted[i] < sorted[j]
		}
	})
	return sorted
}

// TestEquiDepthByValueMatchesStringOrder pins the flat (rank, ID) sort to
// the reference on both topology kinds: values shared by many candidates,
// values whose interning order disagrees with their string order, missing
// attributes, an attribute the graph never mentions, and — on the overlay
// — values and nodes that only exist in the delta.
func TestEquiDepthByValueMatchesStringOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.New(0, 0)
	addNode := func(add func(string, graph.Attrs) graph.NodeID) {
		var attrs graph.Attrs
		if rng.Intn(5) > 0 {
			attrs = graph.Attrs{"val": fmt.Sprintf("v%d", rng.Intn(40)), "other": "x"}
		}
		add(fmt.Sprintf("L%d", rng.Intn(3)), attrs)
	}
	for i := 0; i < 400; i++ {
		addNode(g.AddNode)
	}
	check := func(name string, topo graph.Topology) {
		t.Helper()
		for _, label := range []string{"L0", "L1", "L2", "absent"} {
			cands := topo.NodesWith(topo.Syms().Lookup(label))
			for _, attr := range []string{"val", "never_set"} {
				got, _ := EquiDepthByValue(topo, cands, attr, 7)
				if want := equiDepthByValueRef(g, cands, attr); !slices.Equal(got, want) {
					t.Fatalf("%s: class %s by %s: order diverges from the string-keyed reference", name, label, attr)
				}
			}
		}
	}
	check("snapshot", g.Freeze())

	ov := graph.NewOverlay(g)
	for i := 0; i < 60; i++ {
		addNode(ov.AddNode)
	}
	for i := 0; i < 60; i++ {
		ov.SetAttr(graph.NodeID(rng.Intn(g.NumNodes())), "val", fmt.Sprintf("a%d", rng.Intn(20)))
	}
	check("overlay", ov)
}

// DegreeStats summarizes the degree distribution of a graph: the degree and
// skew statistics the generator tests below check the skew knob with.
type DegreeStats struct {
	Max    int
	Mean   float64
	P50    int
	P90    int
	P99    int
	Gini   float64 // inequality of the degree distribution, 0 = uniform
	SkewDM float64 // |G_dm| / |G_dm'|: mean size of bottom-10% vs top-10% d-hop neighborhoods
}

// Degrees computes degree statistics for g. The SkewDM measure follows the
// Appendix: the ratio of the average size of the 10% smallest d-hop
// neighborhoods to the 10% largest (d fixed at 1 here for tractability;
// the generators control the true d=3 skew knob).
func Degrees(g *graph.Graph) DegreeStats {
	n := g.NumNodes()
	if n == 0 {
		return DegreeStats{}
	}
	deg := make([]int, n)
	total := 0
	for i := 0; i < n; i++ {
		deg[i] = g.Degree(graph.NodeID(i))
		total += deg[i]
	}
	sort.Ints(deg)
	pick := func(q float64) int { return deg[min(n-1, int(q*float64(n)))] }
	ds := DegreeStats{
		Max:  deg[n-1],
		Mean: float64(total) / float64(n),
		P50:  pick(0.50),
		P90:  pick(0.90),
		P99:  pick(0.99),
	}
	// Gini coefficient over degrees.
	if total > 0 {
		var cum float64
		for i, d := range deg {
			cum += float64(d) * float64(2*(i+1)-n-1)
		}
		ds.Gini = cum / (float64(n) * float64(total))
	}
	tenth := max(1, n/10)
	var small, large int
	for i := 0; i < tenth; i++ {
		small += deg[i] + 1
		large += deg[n-1-i] + 1
	}
	ds.SkewDM = float64(small) / float64(large)
	return ds
}

func TestDegreesOnKnownGraph(t *testing.T) {
	g := graph.New(0, 0)
	hub := g.AddNode("h", nil)
	for i := 0; i < 9; i++ {
		v := g.AddNode("s", nil)
		g.MustAddEdge(hub, v, "e")
	}
	ds := Degrees(g)
	if ds.Max != 9 {
		t.Errorf("Max = %d", ds.Max)
	}
	if ds.Mean != 1.8 { // 18 endpoints over 10 nodes
		t.Errorf("Mean = %v", ds.Mean)
	}
	if ds.P50 != 1 {
		t.Errorf("P50 = %d", ds.P50)
	}
	if ds.Gini <= 0 {
		t.Errorf("hub-and-spoke must have positive Gini, got %v", ds.Gini)
	}
	if ds.SkewDM <= 0 || ds.SkewDM > 1 {
		t.Errorf("SkewDM = %v outside (0,1]", ds.SkewDM)
	}
}

func TestDegreesEmptyGraph(t *testing.T) {
	ds := Degrees(graph.New(0, 0))
	if ds.Max != 0 || ds.Mean != 0 {
		t.Error("empty graph stats must be zero")
	}
}

func TestSkewKnobOrdersSkewDM(t *testing.T) {
	flat := gen.Synthetic(gen.SyntheticConfig{Nodes: 3000, Edges: 9000, Skew: 0.0, Seed: 1})
	skewed := gen.Synthetic(gen.SyntheticConfig{Nodes: 3000, Edges: 9000, Skew: 0.9, Seed: 1})
	dsFlat, dsSkewed := Degrees(flat), Degrees(skewed)
	if dsSkewed.SkewDM >= dsFlat.SkewDM {
		t.Errorf("higher Skew must yield smaller SkewDM: %v vs %v", dsSkewed.SkewDM, dsFlat.SkewDM)
	}
	if dsSkewed.Max <= dsFlat.Max {
		t.Errorf("higher Skew must yield larger hubs: %d vs %d", dsSkewed.Max, dsFlat.Max)
	}
}
