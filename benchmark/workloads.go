package main

import (
	_ "embed"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"gfd"
	"gfd/internal/core"
	"gfd/internal/exp"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
)

// workload is one frozen set of inputs plus the user action clocked on it.
// The sizes and op rates below were calibrated once on the seed commit
// (README "Sizing") and are the same on every later commit: a run executes
// ceil(opsPerSecond × --seconds) ops after warmupOps discarded ones, so two
// commits always do the same work and the faster one simply finishes sooner.
type workload struct {
	name string
	why  string
	// opsPerSecond is the frozen op rate; with the BENCHMARK.json run length
	// it fixes the op count.
	opsPerSecond float64
	// build generates the dirty graph and the rule set from the seed.
	build func(seed int64, scale float64) (*graph.Graph, *core.Set)
	// newOp opens whatever the workload keeps warm across ops and returns
	// the clocked action.
	newOp func(a *artifacts, tr *tracer) (op, error)
	// engine is the in-process engine the op runs (kb_dist: the default
	// one), for the probes that repeat a Detect outside the loop.
	engine gfd.Engine
	// updates: setup pre-generates an update stream and the loop may
	// compact (every other loop must cause zero snapshot builds).
	updates bool
	// shards: setup persists an N-way partition beside the snapshot.
	shards bool
}

const (
	warmupOps = 3
	// updateBatch is the number of mixed updates one kb_updates op applies.
	updateBatch = 256
)

var workloads = []*workload{
	{
		name:         "kb_cold_rep",
		why:          "default gfdcheck path: open .gfds, prepare, repVal stream, close; estimation and planning dominate, match and emission do little",
		opsPerSecond: 3.3,
		build:        buildKBCold,
		newOp:        newColdRepOp,
		engine:       gfd.EngineAuto,
	},
	{
		name:         "cyc_clean_seq",
		why:          "warm sequential stream of cyclic rules with few violations: intersection, matcher and literal programs are the op; no store, estimation or emission",
		opsPerSecond: 5,
		build:        func(seed int64, scale float64) (*graph.Graph, *core.Set) { return buildCyc(seed, scale, false) },
		newOp:        newWarmSeqOp,
		engine:       gfd.EngineSequential,
	},
	{
		name:         "cyc_dirty_collect",
		why:          "same graph and matcher with almost every match violating, collected and sorted by warm repVal: emission, collect, sort and the scheduler are the op",
		opsPerSecond: 2.5,
		build:        func(seed int64, scale float64) (*graph.Graph, *core.Set) { return buildCyc(seed, scale, true) },
		newOp:        newWarmCollectOp,
		engine:       gfd.EngineReplicated,
	},
	{
		name:         "kb_updates",
		why:          "writes beside reads: 256-update batches through the incremental detector, then a scan over the shared overlay; patches, version-keyed caches and compaction",
		opsPerSecond: 20,
		build:        func(seed int64, scale float64) (*graph.Graph, *core.Set) { return buildYago(seed, scale, 10000, 0.05) },
		newOp:        newUpdatesOp,
		engine:       gfd.EngineSequential,
		updates:      true,
	},
	{
		name:         "kb_dist",
		why:          "only path through dist and fragment: spawn N worker processes over persisted shards, handshake, halo and violation frames, coordinator loop",
		opsPerSecond: 1.3,
		build:        func(seed int64, scale float64) (*graph.Graph, *core.Set) { return buildYago(seed, scale, 3000, 0.10) },
		newOp:        newDistOp,
		engine:       gfd.EngineAuto,
		shards:       true,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// opCount is the fixed number of measured ops for a run length.
func (w *workload) opCount(seconds float64) int {
	return max(1, int(math.Ceil(w.opsPerSecond*seconds)))
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale)) }

var noiseKinds = []gen.NoiseKind{gen.AttributeNoise, gen.RepresentationalNoise}

// The KB rule sets are frozen files: the patterns gen.MineGFDs mined once
// on the seed-1 graphs, with literals rewritten to invariants of the
// generators. Mining per seed made both the rule shapes and the op cost a
// function of the seed (±40 % across seeds), which no bound could absorb.
//
//go:embed rules/kb_mined9.gfd
var kbMined9 string

//go:embed rules/yago12.gfd
var yago12 string

func mustParseRules(text string) *core.Set {
	set, err := core.ParseRules(strings.NewReader(text))
	if err != nil {
		panic(fmt.Sprintf("embedded rule file: %v", err))
	}
	return set
}

// dirty injects the workload's noise: uniform attribute noise at the given
// rate, plus targeted corruption of rule-covered entities (Exp-5's method)
// so that every seed yields a non-empty, similarly sized Vio(Σ, G).
func dirty(g *graph.Graph, set *core.Set, rate float64, seed int64) {
	gen.Inject(g, gen.NoiseConfig{Rate: rate, Seed: seed + 1, Kinds: noiseKinds})
	gen.InjectTargeted(g, set, 0.05, seed+4)
}

// buildKBCold is the DBpedia-like graph with rule set kb12: the three
// Fig. 7 rules plus the nine frozen mined ones, 2 % attribute noise and
// five structural errors per Fig. 7 class (so the Fig. 7 rules fire too).
func buildKBCold(seed int64, scale float64) (*graph.Graph, *core.Set) {
	g := gen.DBpediaLike(gen.DatasetConfig{Scale: scaled(6000, scale), Seed: seed})
	rules := append([]*core.GFD(nil), exp.Fig7Rules().Rules()...)
	set := core.MustNewSet(append(rules, mustParseRules(kbMined9).Rules()...)...)
	dirty(g, set, 0.02, seed)
	gen.InjectStructural(g, 5, seed+3)
	return g, set
}

// buildYago is the YAGO2-like graph with the twelve frozen mined rules.
func buildYago(seed int64, scale float64, entities int, noise float64) (*graph.Graph, *core.Set) {
	g := gen.YAGO2Like(gen.DatasetConfig{Scale: scaled(entities, scale), Seed: seed})
	set := mustParseRules(yago12)
	dirty(g, set, noise, seed)
	return g, set
}

// cycGraph is the dense three-label power-law graph of the cyclic
// workloads: a Chung–Lu graph whose expected degree sequence is fixed
// (node i weighs (i+1)^-0.75, labels rotate with i) and whose wiring, edge
// labels and attributes come from the seed. gen.Synthetic's preferential
// attachment lets the seed pick the hubs, and with them the triangle count:
// the same rules cost 160–340 ms depending on the seed. Fixing the degree
// sequence keeps the skew and lets the cost concentrate (±2 %).
func cycGraph(nodes, edges int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(nodes, edges)
	val := func() string { return fmt.Sprintf("v%d", rng.Intn(16)) }
	cum := make([]float64, nodes)
	total := 0.0
	for i := range cum {
		g.AddNode(fmt.Sprintf("L%d", i%3), graph.Attrs{"a0": val(), "a1": val(), "val": val()})
		total += math.Pow(float64(i+1), -0.75)
		cum[i] = total
	}
	pick := func() graph.NodeID {
		return graph.NodeID(min(nodes-1, sort.SearchFloat64s(cum, rng.Float64()*total)))
	}
	seen := make(map[graph.Edge]bool, edges)
	for len(seen) < edges {
		e := graph.Edge{From: pick(), To: pick(), Label: fmt.Sprintf("e%d", rng.Intn(3))}
		if e.From == e.To || seen[e] {
			continue
		}
		seen[e] = true
		g.MustAddEdge(e.From, e.To, e.Label)
	}
	return g
}

// buildCyc builds the cyclic workloads' inputs. The clean rule set cyc4
// (three label-rotated triangles and a diamond) conditions on two
// attribute equalities over a domain of 16, so about 1/256 of the matches
// reach Y and 15/16 of those violate; the dirty set cyc3_dirty drops X, so
// 15/16 of all triangle matches violate.
//
// Where the first violating match falls in enumeration order is a draw from
// the seed (0.3–3 ms into a 200 ms op), which would make
// first_violation_s_p50 a lottery on the streaming workload. The clean graph
// therefore plants violations among the 10 heaviest hubs — same a0 and a1,
// pairwise different val — so the first one always arrives with the first
// few matches and the metric measures pipeline start-up, as intended.
func buildCyc(seed int64, scale float64, dirty bool) (*graph.Graph, *core.Set) {
	g := cycGraph(scaled(20000, scale), scaled(300000, scale), seed)
	if !dirty {
		for i := 0; i < min(10, g.NumNodes()); i++ {
			v := graph.NodeID(i)
			g.SetAttr(v, "a0", "hub")
			g.SetAttr(v, "a1", "hub")
			g.SetAttr(v, "val", fmt.Sprintf("hub%d", i))
		}
	}
	lab := func(i int) string { return fmt.Sprintf("L%d", i%3) }
	edge := func(i int) string { return fmt.Sprintf("e%d", i%3) }
	y := []core.Literal{core.VarEq("a", "val", "c", "val")}
	var x []core.Literal
	if !dirty {
		x = []core.Literal{core.VarEq("a", "a0", "b", "a0"), core.VarEq("b", "a1", "c", "a1")}
	}
	var rules []*core.GFD
	for r := 0; r < 3; r++ {
		q := pattern.New()
		a, b, c := q.AddNode("a", lab(r)), q.AddNode("b", lab(r+1)), q.AddNode("c", lab(r+2))
		q.AddEdge(a, b, edge(r))
		q.AddEdge(b, c, edge(r+1))
		q.AddEdge(a, c, edge(r+2))
		rules = append(rules, core.MustNew(fmt.Sprintf("tri%d", r), q, x, y))
	}
	if !dirty {
		q := pattern.New()
		a, b, c, d := q.AddNode("a", lab(0)), q.AddNode("b", lab(1)), q.AddNode("c", lab(2)), q.AddNode("d", lab(0))
		q.AddEdge(a, b, edge(0))
		q.AddEdge(a, c, edge(1))
		q.AddEdge(b, d, edge(2))
		q.AddEdge(c, d, edge(0))
		rules = append(rules, core.MustNew("diamond", q, x, []core.Literal{core.VarEq("a", "val", "d", "val")}))
	}
	return g, core.MustNewSet(rules...)
}

// update is the on-disk form of one incremental.Update.
type update struct {
	Op    string      `json:"op"` // node | edge | attr
	Label string      `json:"label,omitempty"`
	Attrs graph.Attrs `json:"attrs,omitempty"`
	From  gfd.NodeID  `json:"from,omitempty"`
	To    gfd.NodeID  `json:"to,omitempty"`
	Attr  string      `json:"attr,omitempty"`
	Value string      `json:"value,omitempty"`
}

func (u update) decode() incremental.Update {
	switch u.Op {
	case "node":
		return incremental.AddNode{Label: u.Label, Attrs: u.Attrs}
	case "edge":
		return incremental.AddEdge{From: u.From, To: u.To, Label: u.Label}
	default:
		return incremental.SetAttr{Node: u.From, Attr: u.Attr, Value: u.Value}
	}
}

// genUpdates pre-generates the kb_updates stream against the growing node
// count: later batches address nodes earlier batches inserted. New nodes
// copy the label and attributes of a random existing node and new edges
// copy the label of a random existing edge between fresh endpoints of the
// same labels, so updates land inside rule scopes instead of beside them;
// attribute writes re-assign an existing value of the same attribute taken
// from another node of that label, which both breaks and repairs literals.
func genUpdates(g *graph.Graph, batches int, seed int64) [][]update {
	rng := rand.New(rand.NewSource(seed + 7))
	type nodeInfo struct {
		label string
		attrs graph.Attrs
	}
	n0 := g.NumNodes()
	added := make([]nodeInfo, 0, batches*updateBatch/3)
	info := func(v gfd.NodeID) nodeInfo {
		if int(v) < n0 {
			return nodeInfo{g.Label(v), g.NodeAttrs(v)}
		}
		return added[int(v)-n0]
	}
	byLabel := make(map[string][]gfd.NodeID)
	for v := 0; v < n0; v++ {
		l := g.Label(gfd.NodeID(v))
		byLabel[l] = append(byLabel[l], gfd.NodeID(v))
	}
	newEdges := make(map[graph.Edge]bool)
	out := make([][]update, batches)
	for b := range out {
		ups := make([]update, 0, updateBatch)
		for len(ups) < updateBatch {
			total := n0 + len(added)
			switch rng.Intn(3) {
			case 0:
				src := info(gfd.NodeID(rng.Intn(total)))
				attrs := src.attrs.Clone()
				if _, ok := attrs["val"]; ok {
					attrs["val"] = fmt.Sprintf("new_%d_%d", b, len(ups))
				}
				id := gfd.NodeID(total)
				added = append(added, nodeInfo{src.label, attrs})
				byLabel[src.label] = append(byLabel[src.label], id)
				ups = append(ups, update{Op: "node", Label: src.label, Attrs: attrs})
			case 1:
				// Copy the shape of an existing edge onto two other nodes
				// with the same labels.
				from := gfd.NodeID(rng.Intn(n0))
				outs := g.Out(from)
				if len(outs) == 0 {
					continue
				}
				he := outs[rng.Intn(len(outs))]
				fl, tl := byLabel[g.Label(from)], byLabel[g.Label(he.To)]
				e := graph.Edge{From: fl[rng.Intn(len(fl))], To: tl[rng.Intn(len(tl))], Label: he.Label}
				if e.From == e.To || newEdges[e] || (int(e.From) < n0 && int(e.To) < n0 && g.HasEdge(e.From, e.To, e.Label)) {
					continue
				}
				newEdges[e] = true
				ups = append(ups, update{Op: "edge", From: e.From, To: e.To, Label: e.Label})
			default:
				v := gfd.NodeID(rng.Intn(total))
				ni := info(v)
				peers := byLabel[ni.label]
				donor := info(peers[rng.Intn(len(peers))])
				// Map order is random; sort the shared names before drawing.
				var shared []string
				for a := range ni.attrs {
					if _, ok := donor.attrs[a]; ok {
						shared = append(shared, a)
					}
				}
				if len(shared) == 0 {
					continue
				}
				sort.Strings(shared)
				attr := shared[rng.Intn(len(shared))]
				ups = append(ups, update{Op: "attr", From: v, Attr: attr, Value: donor.attrs[attr]})
			}
		}
		out[b] = ups
	}
	return out
}
