package match

import (
	"iter"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// Matcher is the compiled-representation enumerator: Enumerate's
// backtracking search over one *graph.Snapshot read view (a frozen
// snapshot, or an Overlay's patched view), with interned labels, CSR
// adjacency sorted by (edge label, neighbor label, neighbor) and a flat
// used-set. After warm-up (first call per pattern shape) an enumeration
// allocates nothing. A Matcher is NOT safe for concurrent use: engines
// create one per worker, all sharing one read-only view.
//
// Candidates come from the adjacency runs keyed by (edge label, the
// pattern node's own label), and the search keeps join state across
// bindings, as Generic Join and Leapfrog Triejoin keep per-level
// iterators: a run depends only on the view node it is read from, so each
// pattern edge's run is looked up once per node its source binds to (a
// memo per pattern edge). A labelled node with two or more matched
// neighbours over concrete edge labels tries only the nodes in all their
// To-sorted runs (the worst-case-optimal route). If the earliest bound of
// those neighbours sits two or more depths up, its run does not change
// across the sibling loop between: it is written once into a bitset, and
// each sibling leapfrogs (or scans) only its own runs, keeping the nodes
// whose bit is set — a semi-join in place of graph.IntersectAdjacency over
// every run. Either way candidates come ascending and de-duplicated, so
// the route never changes the match order.
// Any other node iterates its smallest run (the rest checked by binary
// search) or its label class; a striped node's residue is checked per
// candidate, and the edges a candidate's source proves are not searched
// again. Plans (Plan: the lowered pattern, the order and the guard
// instructions due at each depth) are read from the matcher's Plans, the
// one owner of lowerings and plans over the view's table: a validate rule
// side's, or NewMatcher's private one. Options.NoIntersect forces the
// probing path for differential testing.
//
// Literal pushdown: under Options.Guard a rule's X literals run inside the
// search, each at the earliest depth where its operands are bound, so a
// prefix X already rejects is never extended; the planner discounts the
// nodes whose placement closes a guard, so guards close early. Limit then
// counts only matches that pass the guard. Y never prunes.
type Matcher struct {
	// snap is the read view. The search calls its accessors directly, so
	// the per-candidate reads (label, degrees, adjacency ranges) stay
	// inlinable calls on every path.
	snap *graph.Snapshot

	// Reusable search state.
	used   []uint64   // graph-node used-set, a bitset over |V|
	assign core.Match // pattern node -> graph node
	order  []int      // the plan's matching order (plan.Order), read per depth
	placed []bool     // planOrder scratch
	est    []int      // planOrder scratch: candidate estimate per pattern node
	// live[d] is the guard's live-member mask on entry to depth d: the
	// members whose X no instruction due at depths < d has failed.
	live []uint64

	// Worst-case-optimal intersection state. ranges is the per-depth
	// gather scratch for To-sorted adjacency runs: it is consumed
	// (intersected into cands) before the search recurses, so one copy
	// serves every depth. cands holds one reusable intersection output
	// buffer per depth — the buffer IS iterated across the recursion, so
	// depths must not share.
	ranges [graph.MaxIntersectArity][]graph.CSREdge
	cands  [][]graph.NodeID

	// Join state of one call. memo[ei] is pattern edge ei's run out of (or
	// into) the view node its source is bound to: a run depends on nothing
	// else. bits, |V| bits sized with used and zero between calls, holds
	// set: pattern edge setEdge's run from node setAt.
	memo    []runMemo
	bits    []uint64
	set     []graph.CSREdge
	setEdge int
	setAt   graph.NodeID

	plans *Plans

	// Per-call state.
	q     *pattern.Pattern
	cq    *pattern.Compiled
	plan  *Plan
	opts  Options
	yield func(core.Match) bool
	n     int
	found int
	halt  bool
	// tick strides the Options.Halt probe: the probe is a function call
	// through a pointer, too expensive per candidate in the hottest loop,
	// so it fires every haltStride tries — bounding the delay between an
	// external stop and the search abandoning, without measurably taxing
	// the zero-alloc steady state.
	tick uint32
}

// haltStride is how many candidate tries pass between Options.Halt
// consultations. Combined with the engines' own strided ctx probe this
// bounds stop latency to a few thousand candidate tries — microseconds —
// while keeping the per-try cost to a counter increment.
const haltStride = 64

// planKey identifies one cached plan: the pattern, the pinned pattern
// nodes in pin order (pinKey; the pinned lists never affect the order), the
// striped node (-1 unstriped) and the guard scheduled into it (the key holds
// the pointers, so a cached pattern's or guard's address is never reused by
// another). It carries no view version: a plan stays valid at every version
// of its table (see Plans).
type planKey struct {
	q      *pattern.Pattern
	pins   uint64
	stripe int
	guard  *core.Guard
}

// Plans owns the lowering and the plans of every pattern run over one
// symbol table, and pools the matchers that read them (Get, Put). Compiled
// lowers a pattern once; a plan is made once per (pattern, pinned nodes in
// order, stripe node, guard) and kept for every view of the table, at any
// version, and never evicted, so a retried unit on another slot runs the
// same plan. When intern is set (a patched view's growing table), a
// pattern's labels are interned before it is lowered, so a label an update
// adds later already has its code. Readers take no lock: a hit is one
// sync.Map load.
type Plans struct {
	syms   *graph.Symbols
	intern bool

	mu  sync.Mutex // guards cqs and the interning
	cqs map[*pattern.Pattern]*pattern.Compiled

	plans  sync.Map // planKey -> *Plan
	misses atomic.Int64
	free   sync.Pool
}

// NewPlans returns the plan cache of patterns lowered onto syms, each
// interned first when intern is set.
func NewPlans(syms *graph.Symbols, intern bool) *Plans {
	return &Plans{syms: syms, intern: intern, cqs: map[*pattern.Pattern]*pattern.Compiled{}}
}

// Compiled returns q lowered onto ps's table, lowering it on first use.
func (ps *Plans) Compiled(q *pattern.Pattern) *pattern.Compiled {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	cq := ps.cqs[q]
	if cq == nil {
		if ps.intern {
			pattern.InternInto(q, ps.syms)
		}
		cq = pattern.Compile(q, ps.syms)
		ps.cqs[q] = cq
	}
	return cq
}

// Misses returns how many plans ps has made.
func (ps *Plans) Misses() int { return int(ps.misses.Load()) }

// Get returns a matcher over the read view s that reads ps: one handed
// back by Put, keeping its scratch, or a new one.
func (ps *Plans) Get(s *graph.Snapshot) *Matcher {
	m, _ := ps.free.Get().(*Matcher)
	if m == nil {
		m = &Matcher{plans: ps}
	}
	m.snap = s
	return m
}

// Put hands m back for a later Get once a call returned normally. A
// matcher that unwound by panic holds a dirty used-set: drop it instead.
func (ps *Plans) Put(m *Matcher) {
	m.snap, m.q, m.cq, m.plan, m.order, m.opts = nil, nil, nil, nil, nil, Options{}
	m.ranges = [graph.MaxIntersectArity][]graph.CSREdge{}
	clear(m.memo) // drop every reference into the old view
	ps.free.Put(m)
}

// NewMatcher returns a matcher over t's read view, a *graph.Snapshot or an
// *graph.Overlay's patched view, with a plan cache of its own over the
// view's table.
func NewMatcher(t graph.Topology) *Matcher {
	v := t.View()
	return NewPlans(v.Syms(), v.Patched()).Get(v)
}

// Topo returns the read view this matcher runs against.
func (m *Matcher) Topo() *graph.Snapshot { return m.snap }

// Enumerate calls yield for every match of q in the topology under opts,
// in a deterministic order (ascending within each candidate range). The
// match set is exactly Enumerate's on the unfrozen graph; only the order
// may differ. (One carve-out: if a graph violates the documented
// no-duplicate-edge invariant, the legacy path can yield the same match
// once per parallel (from, to, label) duplicate; this path always yields
// it once.) The Match slice passed to yield is reused across calls;
// callers that retain it must copy it.
func (m *Matcher) Enumerate(q *pattern.Pattern, opts Options, yield func(core.Match) bool) {
	if q.NumNodes() == 0 || opts.Guard.Dead() {
		return
	}
	m.prepare(q, &opts)
	m.yield = yield
	m.extend(0)
	m.yield = nil
	m.fill(nil, m.setEdge, m.setAt) // while set's view is current
}

// prepare binds the per-call state for a non-empty pattern and resolves
// its plan.
func (m *Matcher) prepare(q *pattern.Pattern, opts *Options) {
	n := q.NumNodes()
	m.q = q
	m.opts = *opts
	m.n, m.found, m.halt = n, 0, false
	m.ensure(n)
	m.plan = m.planFor()
	m.cq, m.order = m.plan.cq, m.plan.Order
	if len(m.memo) < len(m.cq.Edges) {
		m.memo = make([]runMemo, len(m.cq.Edges))
	}
	for i := range m.memo { // a run read in another call may be stale
		m.memo[i].at = graph.Invalid
	}
	m.setEdge = -1
	if opts.Guard != nil {
		m.live[0] = opts.Guard.Live()
	}
}

// Matches returns the matches of q under opts as a lazy pull-based
// iterator: enumeration only advances as the consumer pulls, and breaking
// out of the range stops the backtracking search at the current node —
// the iterator form of Enumerate's early-stop contract. The yielded Match
// is the matcher's reusable assignment buffer; consumers that retain a
// match must copy it. Like every Matcher method, a returned iterator must
// not be ranged concurrently with other uses of the same Matcher.
func (m *Matcher) Matches(q *pattern.Pattern, opts Options) iter.Seq[core.Match] {
	return func(yield func(core.Match) bool) {
		m.Enumerate(q, opts, yield)
	}
}

// All returns every match (copied) of q under opts.
func (m *Matcher) All(q *pattern.Pattern, opts Options) []core.Match {
	var out []core.Match
	m.Enumerate(q, opts, func(h core.Match) bool {
		out = append(out, append(core.Match(nil), h...))
		return true
	})
	return out
}

// ensure sizes the reusable buffers for an n-node pattern. The used-set and
// the semi-join bitset grow, by an eighth more than needed, when the view
// gained nodes (an Overlay between batches): O(log |V|) times, not per 64.
func (m *Matcher) ensure(n int) {
	if w := (m.snap.NumNodes() + 63) >> 6; len(m.used) < w {
		w += w/8 + 1
		m.used, m.bits, m.set = make([]uint64, w), make([]uint64, w), nil
	}
	if cap(m.assign) < n {
		m.assign = make(core.Match, n)
		m.placed = make([]bool, n)
		m.est = make([]int, n)
		m.live = make([]uint64, n+1)
	}
	m.assign = m.assign[:n]
	m.placed = m.placed[:n]
	m.est = m.est[:n]
	for i := 0; i < n; i++ {
		m.assign[i] = graph.Invalid
		m.placed[i] = false
	}
	for len(m.cands) < n {
		m.cands = append(m.cands, nil)
	}
}

// Plan is one compiled search plan: the pattern lowered onto the view's
// symbol table, the matching order — the pattern node bound at each depth
// — and, under a guard, the guard instructions due at each depth, the
// first at which all their operands are bound. It is what Enumerate
// interprets; String prints it.
type Plan struct {
	Order  []int
	pos    []int              // pos[u] is the depth pattern node u binds at
	joins  [][]join           // joins[d]: the edges from order[d] to nodes bound before it
	fix    []int              // fix[d] indexes joins[d]'s fixed run, or is -1 (see index)
	pinned int                // Order[:pinned] are the pinned nodes, for String
	insts  []core.GuardInst   // guard instructions in due-depth order
	at     []int32            // insts[at[d]:at[d+1]] are due at depth d; nil without a guard
	seeds  [][]graph.AttrPair // seeds[d]: the pairs a component opened at d is seeded with (see seed); nil without a guard
	cq     *pattern.Compiled
}

// String renders the plan as its variables in matching order, pinned ones
// starred, each followed by the guard literals checked once it binds:
// "a b[a.a0 = b.a0] c[b.a1 = c.a1] d".
func (p Plan) String() string {
	var b strings.Builder
	for d, u := range p.Order {
		if d > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(string(p.cq.Q.Nodes[u].Var))
		if d < p.pinned {
			b.WriteByte('*')
		}
		if p.at == nil || p.at[d] == p.at[d+1] {
			continue
		}
		b.WriteByte('[')
		for i := p.at[d]; i < p.at[d+1]; i++ {
			if i > p.at[d] {
				b.WriteString(", ")
			}
			b.WriteString(p.insts[i].Format(p.cq.Q))
		}
		b.WriteByte(']')
	}
	return b.String()
}

// join is a pattern edge whose run a depth reads, and the endpoint bound
// before that depth, which the run is read from.
type join struct{ ei, src int }

// index records each node's depth and, per depth, the edges to nodes bound
// before it, in-edges first. The fixed run is the first concrete-label one
// whose source binds earliest, if that is two or more depths up: it does
// not change while the loop between runs.
func (p *Plan) index(q *pattern.Pattern) {
	n := len(p.Order)
	p.pos, p.joins, p.fix = make([]int, n), make([][]join, n), make([]int, n)
	for d, u := range p.Order {
		p.pos[u] = d
	}
	for d, u := range p.Order {
		p.fix[d] = -1
		for _, eis := range [2][]int{q.InEdges(u), q.OutEdges(u)} {
			for _, ei := range eis {
				e := p.cq.Edges[ei]
				src := int(e.From)
				if src == u {
					src = int(e.To)
				}
				if p.pos[src] >= d {
					continue // bound later, or a self-loop
				}
				if e.Label != graph.WildcardSym && p.pos[src] < d-1 && (p.fix[d] < 0 || p.pos[src] < p.pos[p.joins[d][p.fix[d]].src]) {
					p.fix[d] = len(p.joins[d])
				}
				p.joins[d] = append(p.joins[d], join{ei, src})
			}
		}
	}
}

// schedule files every instruction of g under the depth at which its
// last operand binds.
func (p *Plan) schedule(g *core.Guard) {
	n := len(p.Order)
	insts := g.Insts()
	due := make([]int, len(insts))
	p.at = make([]int32, n+1)
	for i := range insts {
		x, y := insts[i].Operands()
		due[i] = max(p.pos[x], p.pos[y])
		p.at[due[i]+1]++
	}
	for d := 0; d < n; d++ {
		p.at[d+1] += p.at[d]
	}
	p.insts = make([]core.GuardInst, len(insts))
	next := append([]int32(nil), p.at[:n]...)
	for i := range insts {
		p.insts[next[due[i]]] = insts[i]
		next[due[i]]++
	}
}

// seed records, at each depth past the pins that opens a component (no
// joins) on a labelled node, where g seeds that node (core.Guard.SeedsAt):
// a candidate that holds none of the pairs fails every live member's X, so
// only the holders of some pair (graph.Snapshot.AppendAttrHolders) can
// pass. They are class members in class order, so iterating them in place
// of the class tries fewer nodes and yields the same matches in the same
// order.
func (p *Plan) seed(g *core.Guard) {
	p.seeds = make([][]graph.AttrPair, len(p.Order))
	for d := p.pinned; d < len(p.Order); d++ {
		if len(p.joins[d]) == 0 && p.cq.NodeSyms[p.Order[d]] != graph.WildcardSym {
			p.seeds[d] = g.SeedsAt(p.Order[d])
		}
	}
}

// planFor returns the plan for the bound call from the matcher's plan
// cache: patterns of at most 64 nodes under at most eight pins (all of
// them, in practice) resolve repeated enumerations, one per work unit on
// the engine paths, to a map hit, skipping the lowering, the class-size
// reads and the O(|Q|²) selection. A miss checks the pins and plans; when
// two matchers miss on one key at once, both return the plan stored first.
func (m *Matcher) planFor() *Plan {
	stripe := -1
	if m.opts.StripeMod > 0 {
		stripe = m.opts.StripeNode
	}
	ps := m.plans
	pins, cacheable := pinKey(m.opts.Pins, m.n)
	cacheable = cacheable && m.n <= 64
	key := planKey{q: m.q, pins: pins, stripe: stripe, guard: m.opts.Guard}
	if p, ok := ps.plans.Load(key); cacheable && ok {
		return p.(*Plan)
	}
	checkPins(m.opts.Pins, m.n)
	m.cq = ps.Compiled(m.q)
	p := &Plan{Order: make([]int, m.n), pinned: len(m.opts.Pins), cq: m.cq}
	m.planOrder(p.Order, stripe)
	p.index(m.q)
	if m.opts.Guard != nil {
		p.schedule(m.opts.Guard)
		p.seed(m.opts.Guard)
	}
	if !cacheable {
		return p
	}
	if old, loaded := ps.plans.LoadOrStore(key, p); loaded {
		return old.(*Plan)
	}
	ps.misses.Add(1)
	return p
}

// guardDiscount is the fixed selectivity planOrder credits a guard
// instruction: closing one divides the placement's class-size estimate by
// it. A constant, not a statistic — the planner stays greedy and reads
// nothing the snapshot does not already know.
const guardDiscount = 8

// pinKey packs the pinned pattern nodes in pin order, one byte each
// (node+1), into a plan-cache key; ok is false for more than eight pins or
// a node outside the n-node pattern, which go uncached.
func pinKey(pins []Pin, n int) (key uint64, ok bool) {
	if len(pins) > 8 {
		return 0, false
	}
	for i, p := range pins {
		if p.Node < 0 || p.Node >= n {
			return 0, false
		}
		key |= uint64(p.Node+1) << (8 * i)
	}
	return key, true
}

// planOrder mirrors the legacy searcher's matching order — the pins first,
// in pin order, then BFS growth from placed nodes preferring small candidate
// estimates, new components seeded by the most selective node — using
// topology class sizes as estimates, each discounted for the guard
// instructions its placement would close (see score). The striped node
// comes right after the pins, so a stripe sheds other residues early.
func (m *Matcher) planOrder(order []int, stripe int) {
	n := m.n
	// Candidate estimates are constant during planning; resolving them
	// once per pattern node keeps the O(|Q|²) selection loops on plain
	// array reads.
	for v := 0; v < n; v++ {
		if sym := m.cq.NodeSyms[v]; sym == graph.WildcardSym {
			m.est[v] = m.snap.NumNodes()
		} else {
			m.est[v] = m.snap.ClassSize(sym)
		}
	}
	for k, p := range m.opts.Pins {
		m.placed[p.Node] = true
		order[k] = p.Node
	}
	k := len(m.opts.Pins)
	if stripe >= 0 && stripe < n && !m.placed[stripe] {
		m.placed[stripe] = true
		order[k] = stripe
		k++
	}
	for k < n {
		next, best := -1, math.Inf(1)
		for oi := 0; oi < k; oi++ {
			p := order[oi]
			for _, ei := range m.q.OutEdges(p) {
				if w := int(m.cq.Edges[ei].To); !m.placed[w] {
					if s := m.score(w, false); s < best {
						next, best = w, s
					}
				}
			}
			for _, ei := range m.q.InEdges(p) {
				if w := int(m.cq.Edges[ei].From); !m.placed[w] {
					if s := m.score(w, false); s < best {
						next, best = w, s
					}
				}
			}
		}
		if next < 0 {
			for v := 0; v < n; v++ {
				if !m.placed[v] {
					if s := m.score(v, true); s < best {
						next, best = v, s
					}
				}
			}
		}
		m.placed[next] = true
		order[k] = next
		k++
	}
}

// score is planOrder's greedy key for binding w next: its class-size
// estimate, divided by guardDiscount once per guard instruction the
// placement closes (w is an operand and the other one is w or already
// placed). A node seeding a component also counts each variable literal
// whose partner is its pattern neighbour: that literal closes one step
// later, so the seed and its neighbour form a guarded pair. Without a
// guard it is the bare estimate, and the order is the unguarded one.
func (m *Matcher) score(w int, seed bool) float64 {
	s := float64(m.est[w])
	if m.opts.Guard == nil {
		return s
	}
	insts := m.opts.Guard.Insts()
	for i := range insts {
		x, y := insts[i].Operands()
		if x != w {
			x, y = y, x
		}
		if x != w {
			continue
		}
		if y == w || m.placed[y] || seed && m.adjacent(w, y) {
			s /= guardDiscount
		}
	}
	return s
}

// adjacent reports a pattern edge between a and b in either direction.
func (m *Matcher) adjacent(a, b int) bool {
	for _, ei := range m.q.OutEdges(a) {
		if int(m.cq.Edges[ei].To) == b {
			return true
		}
	}
	for _, ei := range m.q.InEdges(a) {
		if int(m.cq.Edges[ei].From) == b {
			return true
		}
	}
	return false
}

// admits runs the guard instructions due at depth — its node was just
// bound — and reports whether some member's X survives the prefix,
// recording the surviving members for the next depth. Instructions of an
// already dead member are skipped unevaluated.
func (m *Matcher) admits(depth int) bool {
	p := m.plan
	live := m.live[depth]
	for i := p.at[depth]; i < p.at[depth+1]; i++ {
		gi := &p.insts[i]
		if live&gi.Bit() != 0 && !gi.Holds(m.snap, m.assign) {
			if live &^= gi.Bit(); live == 0 {
				return false
			}
		}
	}
	m.live[depth+1] = live
	return true
}

func (m *Matcher) extend(depth int) {
	if m.halt {
		return
	}
	if depth == m.n {
		m.found++
		if !m.yield(m.assign) {
			m.halt = true
		}
		if m.opts.Limit > 0 && m.found >= m.opts.Limit {
			m.halt = true
		}
		return
	}
	u := m.order[depth]
	if depth < len(m.opts.Pins) { // the plan binds Pins[depth].Node here
		for _, v := range m.opts.Pins[depth].To {
			m.try(depth, u, v, 0)
			if m.halt {
				return
			}
		}
		return
	}
	// Candidate generation reads the adjacency runs keyed by u's own node
	// label, so wrong-label neighbours never become candidates. With one
	// matched neighbor (or under NoIntersect): iterate the smallest run,
	// feasible() verifies the rest by binary search. With two or more
	// matched neighbors over concrete edge labels and a concrete node
	// label: intersect their runs directly (worst-case-optimal join step) —
	// only survivors of the multiway merge reach try(), skipping the
	// per-candidate probes that make cyclic patterns (triangles, diamonds)
	// pay the classical intermediate blow-up. A run with a wildcard edge or
	// node label spans label groups and is not To-sorted, so it never joins
	// the intersection; feasible() still checks its edge per candidate.
	// Each candidate source proves its own edges — every intersected one,
	// or the iterated one — so try() passes them to feasible() as a mask of
	// pattern-edge bits, which skips re-searching them. The plan's fixed
	// run, if it joins, goes to m.ranges[0] for the semi-join (hold).
	nl := m.cq.NodeSyms[u]
	var best []graph.CSREdge
	var bestBit, inter uint64
	bestLen, bestWild := -1, false
	wco := !m.opts.NoIntersect && nl != graph.WildcardSym
	nr, fixAt, fix := 0, -1, m.plan.fix[depth]
	for k, j := range m.plan.joins[depth] {
		e := m.cq.Edges[j.ei]
		c := &m.memo[j.ei] // looked up once per node the source binds to
		if v := m.assign[j.src]; c.at != v {
			if int(e.From) == j.src {
				c.run = m.snap.OutWithNbr(v, e.Label, nl)
			} else {
				c.run = m.snap.InWithNbr(v, e.Label, nl)
			}
			c.at, c.spent = v, 0
		}
		r := c.run
		if bestLen < 0 || len(r) < bestLen {
			best, bestLen, bestWild, bestBit = r, len(r), e.Label == graph.WildcardSym, edgeBit(j.ei)
		}
		if wco && e.Label != graph.WildcardSym && nr < graph.MaxIntersectArity {
			if k == fix {
				fixAt = nr
			}
			m.ranges[nr] = r
			nr++
			inter |= edgeBit(j.ei)
		}
	}
	if nr >= 2 {
		// m.ranges is free for deeper depths once the intersection has
		// materialized into this depth's candidate buffer; the buffer
		// itself is per-depth because it is live across the recursion.
		cands := m.cands[depth][:0]
		if fixAt > 0 {
			m.ranges[0], m.ranges[fixAt] = m.ranges[fixAt], m.ranges[0]
		}
		if fixAt >= 0 && bestLen > 0 && m.hold(m.plan.joins[depth][fix].ei, m.ranges[1:nr]) {
			cands = m.semiJoin(cands, m.ranges[1:nr])
		} else {
			cands = graph.IntersectAdjacency(cands, m.ranges[:nr])
		}
		m.cands[depth] = cands
		for _, v := range cands {
			m.try(depth, u, v, inter|labelBit)
			if m.halt {
				return
			}
		}
		return
	}
	if bestWild {
		// A wildcard range spans label groups, so a neighbour linked under
		// several labels recurs there; only its first occurrence is tried.
		for i := range best {
			if !m.snap.SeenEarlier(best, i) {
				m.try(depth, u, best[i].To, bestBit)
				if m.halt {
					return
				}
			}
		}
		return
	}
	if bestLen >= 0 {
		for i := range best {
			// Within one edge label the run is in (key, To) order, so
			// duplicate (from, to, label) edges — which the graph type
			// documents as never produced, but does not reject — sit
			// adjacent; skipping them keeps the match set a set where the
			// legacy path would re-yield the same h once per parallel edge.
			if i > 0 && best[i] == best[i-1] {
				continue
			}
			m.try(depth, u, best[i].To, bestBit|labelBit)
			if m.halt {
				return
			}
		}
		return
	}
	// Fresh component: the holders of the constants the guard needs here
	// (Plan.seed), the label class range, or all nodes for a wildcard.
	if nl != graph.WildcardSym {
		cands := m.snap.NodesWith(nl)
		if m.plan.seeds != nil && m.plan.seeds[depth] != nil {
			cands = m.holders(depth, nl)
		}
		for _, v := range cands {
			m.try(depth, u, v, labelBit)
			if m.halt {
				return
			}
		}
		return
	}
	for v := 0; v < m.snap.NumNodes(); v++ {
		m.try(depth, u, graph.NodeID(v), 0)
		if m.halt {
			return
		}
	}
}

// holders gathers into depth's candidate buffer the union of the holders
// of the plan's seeds at depth in class nl, ascending.
func (m *Matcher) holders(depth int, nl graph.Sym) []graph.NodeID {
	seeds := m.plan.seeds[depth]
	c := m.cands[depth][:0]
	for _, kv := range seeds {
		c = m.snap.AppendAttrHolders(c, nl, kv.Name, kv.Val)
	}
	if len(seeds) > 1 {
		slices.Sort(c)
		c = slices.Compact(c)
	}
	m.cands[depth] = c
	return c
}

// edgeBit is pattern edge ei's bit in a proved-edge mask; edges past the
// 63rd get none, so feasible() always checks them.
func edgeBit(ei int) uint64 { return uint64(1) << uint(ei) &^ labelBit }

// labelBit marks, in a proved mask, a candidate whose source — a run keyed
// by u's node label, an intersection of such runs, its class — proves it.
const labelBit = uint64(1) << 63

// runMemo is a pattern edge's run from view node at, and the lengths of
// the sibling runs leapfrogged against it since.
type runMemo struct {
	at    graph.NodeID
	run   []graph.CSREdge
	spent int
}

// hold reports whether the bitset holds pattern edge ei's memoized run,
// writing it there once the sibling runs leapfrogged against it sum to its
// length: a hub's run costs at most twice the cheaper route.
func (m *Matcher) hold(ei int, rest [][]graph.CSREdge) bool {
	c := &m.memo[ei]
	if m.setEdge == ei && m.setAt == c.at {
		return true
	}
	for _, r := range rest {
		c.spent += len(r)
	}
	if c.spent < len(c.run) {
		return false
	}
	m.fill(c.run, ei, c.at)
	return true
}

// fill clears the bits of the run the bitset holds and sets run's, the
// run of pattern edge ei from node at.
func (m *Matcher) fill(run []graph.CSREdge, ei int, at graph.NodeID) {
	for _, e := range m.set {
		m.bits[e.To>>6] &^= 1 << (e.To & 63)
	}
	for _, e := range run {
		m.bits[e.To>>6] |= 1 << (e.To & 63)
	}
	m.set, m.setEdge, m.setAt = run, ei, at
}

// semiJoin appends to dst the nodes of every run in rest whose bit is set,
// ascending and de-duplicated: one run is scanned, several leapfrogged.
func (m *Matcher) semiJoin(dst []graph.NodeID, rest [][]graph.CSREdge) []graph.NodeID {
	if len(rest) > 1 {
		out, k := graph.IntersectAdjacency(dst, rest), len(dst)
		for _, v := range out[k:] {
			if m.bits[v>>6]&(1<<(v&63)) != 0 {
				out[k] = v
				k++
			}
		}
		return out[:k]
	}
	for i, e := range rest[0] {
		if m.bits[e.To>>6]&(1<<(e.To&63)) != 0 && (i == 0 || e.To != rest[0][i-1].To) {
			dst = append(dst, e.To)
		}
	}
	return dst
}

// try extends the partial assignment with u -> v if injective and feasible.
// proved holds the bits (edgeBit) of the pattern edges v's candidate source
// already established.
func (m *Matcher) try(depth, u int, v graph.NodeID, proved uint64) {
	if m.opts.Halt != nil {
		m.tick++
		if m.tick%haltStride == 0 && m.opts.Halt() {
			m.halt = true
			return
		}
	}
	if m.used[v>>6]&(1<<(v&63)) != 0 {
		return
	}
	if !m.feasible(u, v, proved) {
		return
	}
	m.assign[u] = v
	m.used[v>>6] |= 1 << (v & 63)
	if m.opts.Guard == nil || m.admits(depth) {
		m.extend(depth + 1)
	}
	m.used[v>>6] &^= 1 << (v & 63)
	m.assign[u] = graph.Invalid
}

// feasible verifies striping, node label, degree bounds, and every pattern
// edge between u and an already-assigned node (binary searches over sorted
// CSR ranges) that proved does not already vouch for. The stripe residue is
// checked here, on every candidate: the planner binds a striped node right
// after the pins, so its candidates come from a pivot's adjacency and are
// never pre-filtered by residue.
func (m *Matcher) feasible(u int, v graph.NodeID, proved uint64) bool {
	if m.opts.StripeMod > 0 && u == m.opts.StripeNode && int(v)%m.opts.StripeMod != m.opts.StripeRem {
		return false
	}
	if proved&labelBit == 0 && !pattern.LabelMatchesSym(m.cq.NodeSyms[u], m.snap.Label(v)) {
		return false
	}
	if len(m.q.OutEdges(u)) > m.snap.OutDegree(v) || len(m.q.InEdges(u)) > m.snap.InDegree(v) {
		return false
	}
	for _, ei := range m.q.OutEdges(u) {
		if proved&edgeBit(ei) != 0 {
			continue
		}
		e := m.cq.Edges[ei]
		to := m.assign[e.To]
		if int(e.To) == u {
			to = v // self-loop
		}
		if to == graph.Invalid {
			continue
		}
		if !m.snap.HasEdge(v, to, e.Label) {
			return false
		}
	}
	for _, ei := range m.q.InEdges(u) {
		if proved&edgeBit(ei) != 0 {
			continue
		}
		e := m.cq.Edges[ei]
		if int(e.From) == u {
			continue // self-loop handled above
		}
		from := m.assign[e.From]
		if from == graph.Invalid {
			continue
		}
		if !m.snap.HasEdge(from, v, e.Label) {
			return false
		}
	}
	return true
}
