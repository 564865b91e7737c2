package gen

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
)

// MineConfig controls GFD generation over a data graph, mirroring the
// paper's generator (Section 7): frequent features (edges and paths up to
// length 3) are mined, the top-k most frequent become "seeds", seeds are
// combined into patterns of the requested size with 1 or 2 connected
// components, and dependencies X → Y are composed from the attributes of
// the nodes an actual match carries.
type MineConfig struct {
	NumRules    int
	PatternSize int     // target |Q| = |V_Q| + |E_Q|; 0 -> 5
	TwoCompFrac float64 // fraction of rules with two (isomorphic) components
	Seed        int64
}

const (
	seedFeatures = 5    // top-k seed features
	maxCandFreq  = 1500 // 2-component rules skip pivot labels more frequent than this
)

func (c MineConfig) normalize() MineConfig {
	if c.NumRules <= 0 {
		c.NumRules = 10
	}
	if c.PatternSize <= 0 {
		c.PatternSize = 5
	}
	return c
}

// feature is a frequent directed edge type (srcLabel -edge-> dstLabel).
type feature struct {
	src, edge, dst string
	count          int
}

// MineGFDs generates a rule set over g. Deterministic for a given config.
func MineGFDs(g *graph.Graph, cfg MineConfig) *core.Set {
	cfg = cfg.normalize()
	rng := rand.New(rand.NewSource(cfg.Seed))
	feats := frequentEdgeFeatures(g)
	if len(feats) == 0 {
		return core.MustNewSet()
	}
	adj := featureAdjacency(feats)

	set := core.MustNewSet()
	signatures := make(map[string]bool)
	attempt := 0
	for set.Len() < cfg.NumRules && attempt < cfg.NumRules*20 {
		attempt++
		twoComp := rng.Float64() < cfg.TwoCompFrac
		seed := feats[attempt%min(seedFeatures*3, len(feats))]
		if twoComp && g.LabelCount(seed.src) > maxCandFreq {
			twoComp = false
		}
		q, ok := growPattern(seed, adj, cfg.PatternSize, twoComp, rng)
		if !ok {
			continue
		}
		f := composeDependency(g, q, set.Len(), twoComp, rng)
		if f == nil {
			continue
		}
		// Mining revisits seeds; identical rules (same pattern and
		// dependency, name aside) are dropped so the budget buys
		// diversity.
		sig := ruleSignature(f)
		if signatures[sig] {
			continue
		}
		if err := set.Add(f); err != nil {
			continue
		}
		signatures[sig] = true
	}
	return set
}

// ruleSignature is a name-independent identity for mined rules.
func ruleSignature(f *core.GFD) string {
	s := f.String()
	if i := strings.IndexByte(s, ':'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// frequentEdgeFeatures counts every (srcLabel, edgeLabel, dstLabel) triple
// and returns them by descending frequency — the frequent edges + length-1
// paths of the mining step. Longer paths are implicit in featureAdjacency,
// which chains compatible features.
func frequentEdgeFeatures(g *graph.Graph) []feature {
	counts := make(map[feature]int)
	g.Edges(func(e graph.Edge) bool {
		f := feature{src: g.Label(e.From), edge: e.Label, dst: g.Label(e.To)}
		counts[f]++
		return true
	})
	out := make([]feature, 0, len(counts))
	for f, c := range counts {
		f.count = c
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].count != out[j].count {
			return out[i].count > out[j].count
		}
		return featureKey(out[i]) < featureKey(out[j])
	})
	return out
}

func featureKey(f feature) string { return f.src + "\x00" + f.edge + "\x00" + f.dst }

// featureAdjacency indexes features by source label, so patterns can grow
// by chaining compatible features into paths of length up to the pattern
// size budget.
func featureAdjacency(feats []feature) map[string][]feature {
	adj := make(map[string][]feature)
	for _, f := range feats {
		adj[f.src] = append(adj[f.src], f)
	}
	return adj
}

// growPattern builds a connected pattern component starting from the seed
// feature and extending with frequent features until the node budget is
// met; for two-component rules the component is duplicated with fresh
// variables (the paper's flight-style symmetric patterns). size is the
// target number of pattern nodes (the |Q| knob of the evaluation, varied
// 2..6); two-component rules get at least 3 nodes per component so an FD
// can key on one satellite and assert another.
func growPattern(seed feature, adj map[string][]feature, size int, twoComp bool, rng *rand.Rand) (*pattern.Pattern, bool) {
	budget := size
	if twoComp {
		budget = size / 2
		if budget < 3 {
			budget = 3
		}
	}
	if budget < 2 {
		budget = 2 // the seed edge needs two endpoints
	}
	type protoNode struct{ label string }
	type protoEdge struct {
		from, to int
		label    string
	}
	nodes := []protoNode{{seed.src}, {seed.dst}}
	edges := []protoEdge{{0, 1, seed.edge}}
	for len(nodes) < budget {
		// Extend from an existing node whose label has outgoing features.
		// Half the time chain from the most recent node (producing path
		// patterns, the fragment GCFDs can express); otherwise branch from
		// a random node (producing the star/branching patterns that
		// motivate general GFDs).
		anchorIdx := len(nodes) - 1
		if rng.Intn(2) == 0 {
			anchorIdx = rng.Intn(len(nodes))
		}
		cands := adj[nodes[anchorIdx].label]
		if len(cands) == 0 {
			// Try any node before giving up.
			found := false
			for i := range nodes {
				if len(adj[nodes[i].label]) > 0 {
					anchorIdx, cands = i, adj[nodes[i].label]
					found = true
					break
				}
			}
			if !found {
				break
			}
		}
		f := cands[rng.Intn(min(3, len(cands)))]
		nodes = append(nodes, protoNode{f.dst})
		edges = append(edges, protoEdge{anchorIdx, len(nodes) - 1, f.edge})
	}
	q := pattern.New()
	copies := 1
	if twoComp {
		copies = 2
	}
	prefix := [2]string{"x", "y"}
	for c := 0; c < copies; c++ {
		base := q.NumNodes()
		for i, n := range nodes {
			q.AddNode(pattern.Var(fmt.Sprintf("%s%d", prefix[c], i)), n.label)
		}
		for _, e := range edges {
			q.AddEdge(base+e.from, base+e.to, e.label)
		}
	}
	return q, true
}

// composeDependency picks X and Y literals from the attributes an actual
// match of q carries, then *verifies* the candidate rule against a sample
// of matches, keeping only rules the (clean) source graph satisfies —
// mined data-quality rules must hold on the data they are mined from. For
// two-component rules it builds the FD shape x_i.val = y_i.val →
// x_j.val = y_j.val; for single-component rules a constant rule
// x_i.A = c → x_j.B = d from observed values.
func composeDependency(g *graph.Graph, q *pattern.Pattern, idx int, twoComp bool, rng *rand.Rand) *core.GFD {
	ms := match.NewMatcher(g.Freeze()).All(q, match.Options{Limit: 1})
	if len(ms) == 0 {
		return nil // pattern has no support in the graph
	}
	m := ms[0]
	name := fmt.Sprintf("mined_%d", idx)
	if twoComp {
		half := q.NumNodes() / 2
		tuples := componentTuples(g, q, half)
		// Try each node as the key; keep consequent positions whose values
		// are functionally determined by the key across *all* component
		// matches (sampling is unsound here: a key that collides across
		// unrelated entities, e.g. flights sharing an arrival time, must
		// be rejected even when the first few hundred matches agree).
		for key := 0; key < half; key++ {
			positions := functionalPositions(tuples, key, half)
			var y []core.Literal
			for _, i := range positions {
				if len(y) == 2 {
					break
				}
				y = append(y, core.VarEq(q.Nodes[i].Var, "val", q.Nodes[half+i].Var, "val"))
			}
			if len(y) == 0 {
				continue
			}
			x := []core.Literal{core.VarEq(q.Nodes[key].Var, "val", q.Nodes[half+key].Var, "val")}
			return core.MustNew(name, q, x, y)
		}
		return nil
	}
	// Single component: condition on one node's observed attribute value,
	// require another node's observed value; retry a few literal choices
	// until one holds on the sample.
	for try := 0; try < 6; try++ {
		xi := rng.Intn(q.NumNodes())
		yi := (xi + 1 + rng.Intn(q.NumNodes()-1)) % q.NumNodes()
		xa := pickAttr(g, m[xi], rng)
		ya := pickAttr(g, m[yi], rng)
		if xa == "" || ya == "" {
			continue
		}
		xv, _ := g.Attr(m[xi], xa)
		yv, _ := g.Attr(m[yi], ya)
		f := core.MustNew(name, q,
			[]core.Literal{core.Const(q.Nodes[xi].Var, xa, xv)},
			[]core.Literal{core.Const(q.Nodes[yi].Var, ya, yv)})
		if holdsOnSample(g, f) {
			return f
		}
	}
	return nil
}

// componentTuple is one match of a two-component pattern's first
// component: the matched nodes plus their "val" attributes (empty string
// for a missing attribute).
type componentTuple struct {
	nodes []graph.NodeID
	vals  []string
}

// componentTuples enumerates every match of the first component of a
// symmetric two-component pattern (nodes 0..half-1 with their edges).
func componentTuples(g *graph.Graph, q *pattern.Pattern, half int) []componentTuple {
	nodes := make([]int, half)
	for i := range nodes {
		nodes[i] = i
	}
	comp := pattern.Induced(q, nodes)
	const maxTuples = 50000
	var tuples []componentTuple
	match.NewMatcher(g.Freeze()).Enumerate(comp, match.Options{}, func(m core.Match) bool {
		t := componentTuple{nodes: append([]graph.NodeID(nil), m...), vals: make([]string, half)}
		for i := 0; i < half; i++ {
			t.vals[i], _ = g.Attr(m[i], "val")
		}
		tuples = append(tuples, t)
		return len(tuples) < maxTuples
	})
	return tuples
}

// functionalPositions returns the component node positions whose value is
// functionally determined by the key position across all tuples. The key
// must have support: some value shared by two *node-disjoint* component
// matches — a full two-component match is injective, so two instances
// sharing a node never form one, and an FD keyed on them would never fire.
func functionalPositions(tuples []componentTuple, key, half int) []int {
	byKey := make(map[string][]int)
	for ti, t := range tuples {
		if t.vals[key] != "" {
			byKey[t.vals[key]] = append(byKey[t.vals[key]], ti)
		}
	}
	support := false
	for _, group := range byKey {
		for j := 1; j < len(group) && !support; j++ {
			if nodesDisjoint(tuples[group[0]].nodes, tuples[group[j]].nodes) {
				support = true
			}
		}
		if support {
			break
		}
	}
	if !support {
		return nil
	}
	var out []int
	for i := 0; i < half; i++ {
		if i == key {
			continue
		}
		consistent := true
		for _, group := range byKey {
			for j := 1; j < len(group) && consistent; j++ {
				a, b := tuples[group[0]].vals[i], tuples[group[j]].vals[i]
				if a == "" || a != b {
					consistent = false
				}
			}
			if !consistent {
				break
			}
		}
		if consistent {
			out = append(out, i)
		}
	}
	return out
}

func nodesDisjoint(a, b []graph.NodeID) bool {
	for _, x := range a {
		for _, y := range b {
			if x == y {
				return false
			}
		}
	}
	return true
}

// mineVerifySample bounds how many matches a candidate rule is checked
// against before being accepted.
const mineVerifySample = 2000

// holdsOnSample reports whether f is a useful data-quality rule for its
// source graph: among the first mineVerifySample matches of its pattern it
// has no violation and at least two matches satisfying X. The support
// requirement rejects vacuous rules (e.g. FDs keyed on a unique value),
// which would never fire on noisy data.
func holdsOnSample(g *graph.Graph, f *core.GFD) bool {
	ok := true
	seen, support := 0, 0
	snap := g.Freeze()
	p := f.CompileLiterals(snap.Syms())
	match.NewMatcher(snap).Enumerate(f.Q, match.Options{}, func(m core.Match) bool {
		seen++
		if p.SatisfiesX(snap, m) {
			support++
			if !p.SatisfiesY(snap, m) {
				ok = false
				return false
			}
		}
		return seen < mineVerifySample
	})
	return ok && support >= 2
}

func pickAttr(g *graph.Graph, v graph.NodeID, rng *rand.Rand) string {
	attrs := g.NodeAttrs(v)
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys[rng.Intn(len(keys))]
}
