package gen

import (
	"fmt"
	"math/rand"
	"slices"

	"gfd/internal/graph"
)

// NoiseKind classifies an injected inconsistency, following the taxonomy
// of Exp-5 (after Zaveri et al.): attribute, type, and representational
// inconsistencies.
type NoiseKind uint8

const (
	// AttributeNoise changes the value of one attribute x.A.
	AttributeNoise NoiseKind = iota
	// TypeNoise revises the type (label) of an entity.
	TypeNoise
	// RepresentationalNoise perturbs one of two attribute values that were
	// equal across same-typed entities.
	RepresentationalNoise
)

func (k NoiseKind) String() string {
	switch k {
	case AttributeNoise:
		return "attribute"
	case TypeNoise:
		return "type"
	default:
		return "representational"
	}
}

// InjectedError records one injected inconsistency, forming the ground
// truth Vio for precision/recall.
type InjectedError struct {
	Node graph.NodeID
	Kind NoiseKind
	Attr string // attribute touched (empty for type noise)
	Old  string
	New  string
}

// NoiseConfig controls injection.
type NoiseConfig struct {
	Rate  float64 // per-node probability of receiving noise; 0 -> 0.02
	Kinds []NoiseKind
	Seed  int64
}

func (c NoiseConfig) normalize() NoiseConfig {
	if c.Rate <= 0 {
		c.Rate = 0.02
	}
	if len(c.Kinds) == 0 {
		c.Kinds = []NoiseKind{AttributeNoise, TypeNoise, RepresentationalNoise}
	}
	return c
}

// Inject mutates g in place, corrupting entities at the configured rate,
// and returns the ground-truth error list. Deterministic for a config.
func Inject(g *graph.Graph, cfg NoiseConfig) []InjectedError {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	labels := g.Labels()
	var out []InjectedError
	for v := 0; v < g.NumNodes(); v++ {
		if rng.Float64() >= cfg.Rate {
			continue
		}
		id := graph.NodeID(v)
		kind := cfg.Kinds[rng.Intn(len(cfg.Kinds))]
		switch kind {
		case TypeNoise:
			old := g.Label(id)
			nw := labels[rng.Intn(len(labels))]
			if nw == old {
				continue
			}
			g.Relabel(id, nw)
			out = append(out, InjectedError{Node: id, Kind: TypeNoise, Old: old, New: nw})
		default:
			attr := pickAttr(g, id, rng)
			if attr == "" {
				continue
			}
			old, _ := g.Attr(id, attr)
			nw := corrupt(old, rng)
			g.SetAttr(id, attr, nw)
			out = append(out, InjectedError{Node: id, Kind: kind, Attr: attr, Old: old, New: nw})
		}
	}
	return out
}

// corrupt produces a value distinct from old.
func corrupt(old string, rng *rand.Rand) string {
	return fmt.Sprintf("%s~err%d", old, rng.Intn(1000))
}

// GroundTruth returns the corrupted entities, ascending and distinct.
func GroundTruth(errs []InjectedError) []graph.NodeID {
	set := make([]graph.NodeID, len(errs))
	for i, e := range errs {
		set[i] = e.Node
	}
	slices.Sort(set)
	return slices.Compact(set)
}

// PrecisionRecall compares a detected entity set against ground truth,
// the accuracy measures of Exp-5: precision = |Vio ∩ Vio(A)| / |Vio(A)|,
// recall = |Vio ∩ Vio(A)| / |Vio|. Both sets are ascending and distinct.
func PrecisionRecall(truth, detected []graph.NodeID) (precision, recall float64) {
	if len(detected) == 0 {
		if len(truth) == 0 {
			return 1, 1
		}
		return 1, 0
	}
	hit := 0
	for _, v := range detected {
		if _, ok := slices.BinarySearch(truth, v); ok {
			hit++
		}
	}
	precision = float64(hit) / float64(len(detected))
	if len(truth) == 0 {
		recall = 1
	} else {
		recall = float64(hit) / float64(len(truth))
	}
	return precision, recall
}
