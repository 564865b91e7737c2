package baseline

import (
	"context"
	"slices"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
	"gfd/internal/validate"
)

// Relational is the relational encoding of a property graph that a
// BigDansing-style rule engine operates on: nodes(id, label),
// edges(src, label, dst) and attrs(id, attr, val) tables, with the hash
// indexes a generic relational engine would build (edges by label, nodes
// by label), and the distinct (src, dst) pairs a wildcard edge selects.
type Relational struct {
	nodesByLabel map[string][]graph.NodeID
	edgesByLabel map[string][]graph.Edge
	pairs        []graph.Edge
	allNodes     []graph.NodeID
}

// Encode builds the relational encoding of a view — a frozen or
// store-adopted snapshot, or an overlay's patched view — reading its
// compiled arrays, so encoding a sealed graph never builds a string form
// of it. Edges come in (source, adjacency) order.
func Encode(t *graph.Snapshot) *Relational {
	r := &Relational{
		nodesByLabel: make(map[string][]graph.NodeID),
		edgesByLabel: make(map[string][]graph.Edge),
	}
	syms := t.Syms()
	for v := 0; v < t.NumNodes(); v++ {
		id := graph.NodeID(v)
		l := syms.Name(t.Label(id))
		r.allNodes = append(r.allNodes, id)
		r.nodesByLabel[l] = append(r.nodesByLabel[l], id)
	}
	var tos []graph.NodeID
	for v := 0; v < t.NumNodes(); v++ {
		tos = tos[:0]
		for _, he := range t.Out(graph.NodeID(v)) {
			e := graph.Edge{From: graph.NodeID(v), To: he.To, Label: syms.Name(t.EdgeLabel(he.Label))}
			r.edgesByLabel[e.Label] = append(r.edgesByLabel[e.Label], e)
			tos = append(tos, he.To)
		}
		slices.Sort(tos)
		for _, to := range slices.Compact(tos) {
			r.pairs = append(r.pairs, graph.Edge{From: graph.NodeID(v), To: to})
		}
	}
	return r
}

// binding is a partial assignment of pattern nodes, the intermediate tuple
// of the join pipeline. Index -1 marks unbound.
type binding []graph.NodeID

// DetectJoinsB evaluates every rule of a prepared bundle as a left-deep
// join over the edge relation — one join per pattern edge, node-table
// scans for isolated pattern nodes — followed by the isomorphism
// (pairwise-distinctness) filter that BigDansing users must hand-code, and
// finally the X → Y check. Parallelism degree n splits the outermost scan.
// The results coincide with the GFD engine's; only the evaluation strategy
// (and its intermediate sizes) differs. The session layer runs
// EngineBigDansing through it.
//
// The sink receives violations as the join pipelines find them, each
// worker emitting on its own lane; a cancelled context stops every worker
// at its next probe and aborts with its error. A panicking join worker is
// recovered into a *cluster.WorkerError while the surviving workers drain
// their chunks; the run then continues into the remaining rules and
// returns a *validate.PartialError (errors.Is validate.ErrPartial, Unit -1
// — the join pipeline has no retryable unit granularity) listing every
// death.
func DetectJoinsB(ctx context.Context, b *validate.Bundle, rel *Relational, n int, sink validate.Sink) error {
	if n < 1 {
		n = 1
	}
	// Even a relational engine gets the interned-dependency check: the
	// final X → Y filter runs each rule's compiled literal program against
	// the view's interned attributes, and the node-label selections read
	// the same view the relational encoding was cut from (the join
	// pipeline itself — the part the comparison measures — stays
	// relational).
	view := b.Topo()
	var deaths []*cluster.WorkerError
	for _, f := range b.Set().Rules() {
		if err := ctx.Err(); err != nil {
			return err
		}
		deaths = append(deaths, detectOneJoin(ctx, view, rel, f, b.Program(f), n, sink)...)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return validate.Partial(deaths)
}

// detectOneJoin runs one rule's join pipeline and returns one
// *cluster.WorkerError per worker that died (recovered panics — the
// surviving workers drained regardless).
func detectOneJoin(ctx context.Context, view *graph.Snapshot, rel *Relational, f *core.GFD, prog *core.LiteralProgram, n int, sink validate.Sink) []*cluster.WorkerError {
	q := f.Q
	nNodes := q.NumNodes()
	if nNodes == 0 {
		return nil
	}
	plan := joinPlan(q)

	// Outer scan: the first plan step's tuples, split across n workers,
	// each probing the context every 64 outer tuples.
	firstTuples := stepTuples(rel, q, plan[0])
	chunks := splitChunks(len(firstTuples), n)
	_, deaths := cluster.Fan(n, 0, func(w int) {
		for i, ti := range chunks[w] {
			if i%64 == 0 && ctx.Err() != nil {
				return
			}
			b := make(binding, nNodes)
			for i := range b {
				b[i] = graph.Invalid
			}
			if !applyStep(q, plan[0], firstTuples[ti], b) {
				continue
			}
			if !labelsOK(view, q, plan[0], b) {
				continue
			}
			joinRest(view, rel, f, prog, plan, 1, b, sink, w)
		}
	})
	return deaths
}

// planStep is one join step: either a pattern edge or an isolated node
// scan.
type planStep struct {
	edge   int // pattern edge index, or -1
	node   int // pattern node index for isolated scans
	isEdge bool
}

// joinPlan orders the pattern edges left-deep (generator order — a generic
// engine without graph statistics) and appends scans for edge-free nodes.
func joinPlan(q *pattern.Pattern) []planStep {
	var plan []planStep
	covered := make([]bool, q.NumNodes())
	for ei := range q.Edges {
		plan = append(plan, planStep{edge: ei, isEdge: true})
		covered[q.Edges[ei].From] = true
		covered[q.Edges[ei].To] = true
	}
	for v := 0; v < q.NumNodes(); v++ {
		if !covered[v] {
			plan = append(plan, planStep{node: v, edge: -1})
		}
	}
	return plan
}

// tuple is one row feeding a join step.
type tuple struct {
	e      graph.Edge
	v      graph.NodeID
	isEdge bool
}

func stepTuples(rel *Relational, q *pattern.Pattern, s planStep) []tuple {
	if s.isEdge {
		e := q.Edges[s.edge]
		var rows []graph.Edge
		if e.Label == pattern.Wildcard {
			rows = rel.pairs
		} else {
			rows = rel.edgesByLabel[e.Label]
		}
		out := make([]tuple, len(rows))
		for i, r := range rows {
			out[i] = tuple{e: r, isEdge: true}
		}
		return out
	}
	label := q.Nodes[s.node].Label
	var rows []graph.NodeID
	if label == pattern.Wildcard {
		rows = rel.allNodes
	} else {
		rows = rel.nodesByLabel[label]
	}
	out := make([]tuple, len(rows))
	for i, r := range rows {
		out[i] = tuple{v: r}
	}
	return out
}

// applyStep merges a tuple into the binding, checking node-label selections
// and join keys; returns false on mismatch.
func applyStep(q *pattern.Pattern, s planStep, t tuple, b binding) bool {
	if s.isEdge {
		e := q.Edges[s.edge]
		return bindNode(q, b, e.From, t.e.From) && bindNode(q, b, e.To, t.e.To)
	}
	return bindNode(q, b, s.node, t.v)
}

func bindNode(q *pattern.Pattern, b binding, pv int, g graph.NodeID) bool {
	if b[pv] != graph.Invalid {
		return b[pv] == g
	}
	b[pv] = g
	return true
}

// joinRest extends the binding through the remaining plan steps, emitting
// on worker w's lane.
func joinRest(view *graph.Snapshot, rel *Relational, f *core.GFD, prog *core.LiteralProgram, plan []planStep, depth int, b binding, sink validate.Sink, w int) {
	if depth == len(plan) {
		finishBinding(view, f, prog, b, sink, w)
		return
	}
	s := plan[depth]
	for _, t := range stepTuples(rel, f.Q, s) {
		nb := append(binding(nil), b...)
		if !applyStep(f.Q, s, t, nb) {
			continue
		}
		if !labelsOK(view, f.Q, s, nb) {
			continue
		}
		joinRest(view, rel, f, prog, plan, depth+1, nb, sink, w)
	}
}

// labelsOK applies the node-label selection predicates for the nodes the
// step just bound (edge tables carry no node labels, so a relational plan
// must re-check them).
func labelsOK(view *graph.Snapshot, q *pattern.Pattern, s planStep, b binding) bool {
	check := func(pv int) bool {
		return pattern.LabelMatches(q.Nodes[pv].Label, view.LabelName(b[pv]))
	}
	if s.isEdge {
		e := q.Edges[s.edge]
		return check(e.From) && check(e.To)
	}
	return check(s.node)
}

// finishBinding applies the hand-coded isomorphism filter (pairwise
// distinctness) and the compiled dependency check, emitting a violation
// on worker w's lane.
func finishBinding(view *graph.Snapshot, f *core.GFD, prog *core.LiteralProgram, b binding, sink validate.Sink, w int) {
	for i := 0; i < len(b); i++ {
		if b[i] == graph.Invalid {
			return
		}
		for j := i + 1; j < len(b); j++ {
			if b[i] == b[j] {
				return
			}
		}
	}
	if m := core.Match(b); prog.IsViolation(view, m) {
		sink.Emit(w, validate.Violation{Rule: f.Name, Match: append(core.Match(nil), m...)})
	}
}

func splitChunks(total, n int) [][]int {
	out := make([][]int, n)
	for i := 0; i < total; i++ {
		out[i%n] = append(out[i%n], i)
	}
	return out
}
