package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// cycShaped builds a graph shaped like the cyclic benchmark workloads':
// three node labels by ID, three edge labels, and endpoints drawn with
// weight (i+1)^-0.75, so a few hubs hold thousands of entries and most
// nodes a handful.
func cycShaped(nodes, edges int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(nodes, edges)
	cum := make([]float64, nodes)
	total := 0.0
	for i := range cum {
		g.AddNode(fmt.Sprintf("L%d", i%3), nil)
		total += math.Pow(float64(i+1), -0.75)
		cum[i] = total
	}
	pick := func() NodeID {
		return NodeID(min(nodes-1, sort.SearchFloat64s(cum, rng.Float64()*total)))
	}
	for i := 0; i < edges; i++ {
		from, to := pick(), pick()
		if from != to {
			g.MustAddEdge(from, to, fmt.Sprintf("e%d", rng.Intn(3)))
		}
	}
	return g
}

// BenchmarkLabelRange prices the adjacency searches the matcher makes per
// candidate step — an (edge label, neighbour label) run of the out and of
// the in adjacency, and an edge test, half of them hits — in ns/op, on the
// 64 highest-degree nodes of a cyc-shaped graph (hub) and on nodes of
// degree 8 to 32 (light). The labels rotate over the graph's three of
// each kind.
func BenchmarkLabelRange(b *testing.B) {
	s := cycShaped(20000, 300000, 1).Freeze()
	syms := s.Syms()
	var els, nls []Sym
	for i := 0; i < 3; i++ {
		els = append(els, syms.Lookup(fmt.Sprintf("e%d", i)))
		nls = append(nls, syms.Lookup(fmt.Sprintf("L%d", i)))
	}
	byDegree := make([]NodeID, s.NumNodes())
	for v := range byDegree {
		byDegree[v] = NodeID(v)
	}
	degree := func(v NodeID) int { return s.OutDegree(v) + s.InDegree(v) }
	slices.SortStableFunc(byDegree, func(a, b NodeID) int { return degree(b) - degree(a) })
	light := slices.DeleteFunc(slices.Clone(byDegree), func(v NodeID) bool { return degree(v) < 8 || degree(v) > 32 })
	rng := rand.New(rand.NewSource(2))
	for _, set := range []struct {
		name  string
		nodes []NodeID
	}{{"hub", byDegree[:64]}, {"light", light[:min(len(light), 4096)]}} {
		// Edge tests: each node's out-neighbours (hits) beside random
		// nodes (mostly misses), under a concrete label.
		type probe struct {
			from, to NodeID
			l        Sym
		}
		var probes []probe
		for _, v := range set.nodes {
			for _, e := range s.Out(v) {
				probes = append(probes, probe{v, e.To, s.EdgeLabel(e.Label)})
				probes = append(probes, probe{v, NodeID(rng.Intn(s.NumNodes())), els[rng.Intn(3)]})
				if len(probes) >= 64*len(set.nodes) {
					break
				}
			}
		}
		rng.Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
		nodes := set.nodes
		sink := 0
		b.Run("OutWithNbr/"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += len(s.OutWithNbr(nodes[i%len(nodes)], els[i%3], nls[i/3%3]))
			}
		})
		b.Run("InWithNbr/"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sink += len(s.InWithNbr(nodes[i%len(nodes)], els[i%3], nls[i/3%3]))
			}
		})
		b.Run("HasEdge/"+set.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if p := probes[i%len(probes)]; s.HasEdge(p.from, p.to, p.l) {
					sink++
				}
			}
		})
		if sink < 0 {
			b.Fatal(sink)
		}
	}
}
