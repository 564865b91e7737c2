package gen

import (
	"sort"
	"testing"

	"gfd/internal/graph"
)

// The degree statistics the skew knob is checked with.

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
	flat := Synthetic(SyntheticConfig{Nodes: 3000, Edges: 9000, Skew: 0.0, Seed: 1})
	skewed := Synthetic(SyntheticConfig{Nodes: 3000, Edges: 9000, Skew: 0.9, Seed: 1})
	dsFlat, dsSkewed := Degrees(flat), Degrees(skewed)
	if dsSkewed.SkewDM >= dsFlat.SkewDM {
		t.Errorf("higher Skew must yield smaller SkewDM: %v vs %v", dsSkewed.SkewDM, dsFlat.SkewDM)
	}
	if dsSkewed.Max <= dsFlat.Max {
		t.Errorf("higher Skew must yield larger hubs: %d vs %d", dsSkewed.Max, dsFlat.Max)
	}
}
