// Package gen provides the data substrate of the evaluation (Section 7):
// a synthetic power-law graph generator, parameter-matched stand-ins for
// the paper's real-life datasets (DBpedia, YAGO2, Pokec; the README's
// opening paragraph states the substitution), a GFD generator that mines frequent
// features and assembles rules, and noise injection with ground truth for
// the accuracy experiment (Exp-5).
package gen

import (
	"fmt"
	"math/rand"

	"gfd/internal/graph"
)

// SyntheticConfig controls the power-law generator. It mirrors the paper's
// knobs: |V|, |E|, a label alphabet L of 30 labels, 5 attributes per node
// with values from an active domain of 1000 values.
type SyntheticConfig struct {
	Nodes  int
	Edges  int
	Labels int     // node/edge label alphabet size; 0 -> 30
	Attrs  int     // attributes per node; 0 -> 5
	Domain int     // active attribute-value domain; 0 -> 1000
	Skew   float64 // preferential-attachment bias in [0,1); higher = more skewed degrees
	Seed   int64
}

func (c SyntheticConfig) normalize() SyntheticConfig {
	if c.Labels <= 0 {
		c.Labels = 30
	}
	if c.Attrs <= 0 {
		c.Attrs = 5
	}
	if c.Domain <= 0 {
		c.Domain = 1000
	}
	if c.Skew < 0 {
		c.Skew = 0
	}
	if c.Skew >= 0.99 {
		c.Skew = 0.99
	}
	return c
}

// Synthetic generates a directed power-law graph G = (V, E, L, F_A): edge
// targets are drawn preferentially (probability Skew from the running
// endpoint multiset, else uniformly), which yields the heavy-tailed degree
// distributions of the paper's synthetic workloads. Deterministic for a
// given config.
func Synthetic(cfg SyntheticConfig) *graph.Graph {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := graph.New(cfg.Nodes, cfg.Edges)

	for i := 0; i < cfg.Nodes; i++ {
		attrs := make(graph.Attrs, cfg.Attrs)
		for a := 0; a < cfg.Attrs; a++ {
			attrs[fmt.Sprintf("a%d", a)] = fmt.Sprintf("v%d", rng.Intn(cfg.Domain))
		}
		// "val" is the attribute the mined rules' constants select on;
		// every node carries it.
		attrs["val"] = fmt.Sprintf("v%d", rng.Intn(cfg.Domain))
		g.AddNode(fmt.Sprintf("L%d", rng.Intn(cfg.Labels)), attrs)
	}
	if cfg.Nodes == 0 {
		return g
	}

	// Endpoint multiset for preferential attachment.
	endpoints := make([]graph.NodeID, 0, 2*cfg.Edges)
	pick := func() graph.NodeID {
		if len(endpoints) > 0 && rng.Float64() < cfg.Skew {
			return endpoints[rng.Intn(len(endpoints))]
		}
		return graph.NodeID(rng.Intn(cfg.Nodes))
	}
	seen := make(map[graph.Edge]bool, cfg.Edges)
	for e := 0; e < cfg.Edges; e++ {
		from, to := pick(), pick()
		if from == to {
			to = graph.NodeID((int(to) + 1) % cfg.Nodes)
		}
		// Skip duplicate draws (the graph type documents that generators
		// never emit duplicate (from, to, label) triples); the RNG stream
		// is consumed either way so existing seeds keep their shape.
		edge := graph.Edge{From: from, To: to, Label: fmt.Sprintf("e%d", rng.Intn(cfg.Labels))}
		if seen[edge] {
			continue
		}
		seen[edge] = true
		g.MustAddEdge(edge.From, edge.To, edge.Label)
		endpoints = append(endpoints, from, to)
	}
	return g
}
