// Package incremental maintains the violation set Vio(Σ, G) under graph
// updates without re-validating the whole graph — the incremental error
// detection direction the paper cites as follow-on work (Fan et al.,
// "Incremental detection of inconsistencies in distributed data", TKDE
// 2014) transplanted to GFDs, maintained in the spirit of answering
// queries under updates via auxiliary structures (Berkholz, Keppeler &
// Schweikardt) rather than recomputation.
//
// The key observation is the same locality that powers the parallel
// engines: every match of a pattern lies within the c-hop neighborhoods
// of its pivots. An update touching node v can therefore only create or
// destroy violations of units whose pivot lies within c hops of v; the
// detector re-validates exactly those units and splices the results into
// the maintained report.
//
// Supported updates are node insertion, edge insertion, and attribute
// assignment (the insert-only + attribute-update model; deletions would
// require adjacency removal the graph type deliberately does not expose).
//
// The detector runs entirely on the compiled path. It maintains a
// graph.Overlay — the base CSR snapshot frozen at construction plus
// localized adjacency/class/attribute patches kept in lockstep with every
// Apply — and re-validates touched units with the same zero-alloc
// match.Matcher and core.LiteralProgram machinery the batch engines use:
// interned labels, sorted CSR ranges, integer literal compares. No full
// snapshot is ever rebuilt per update batch; once the accumulated delta
// exceeds a fraction of the base size the detector compacts — one fresh
// freeze absorbing the patches — and continues on a clean overlay, so
// re-freeze cost is amortized over Ω(|G|) updates.
package incremental

import (
	"fmt"
	"sort"
	"strings"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/workload"
)

// Update is one graph mutation.
type Update interface{ isUpdate() }

// AddNode inserts a node. The assigned NodeID is reported through
// Detector.Apply's node callback if needed; attribute map may be nil.
type AddNode struct {
	Label string
	Attrs graph.Attrs
}

// AddEdge inserts a directed labeled edge.
type AddEdge struct {
	From, To graph.NodeID
	Label    string
}

// SetAttr assigns an attribute value on an existing node.
type SetAttr struct {
	Node  graph.NodeID
	Attr  string
	Value string
}

func (AddNode) isUpdate() {}
func (AddEdge) isUpdate() {}
func (SetAttr) isUpdate() {}

// ApplyTo plays updates onto an overlay (which forwards each mutation to
// its underlying graph), returning the IDs of inserted nodes in update
// order. Shared by Detector.Apply and the session layer's Session.Apply.
func ApplyTo(ov *graph.Overlay, ups ...Update) []graph.NodeID {
	var inserted []graph.NodeID
	for _, up := range ups {
		switch u := up.(type) {
		case AddNode:
			inserted = append(inserted, ov.AddNode(u.Label, u.Attrs))
		case AddEdge:
			ov.MustAddEdge(u.From, u.To, u.Label)
		case SetAttr:
			ov.SetAttr(u.Node, u.Attr, u.Value)
		}
	}
	return inserted
}

// maxUnitPivots bounds the pivot arity the allocation-free unit key
// carries inline. The paper notes k ≤ 2 in practice (one pivot per
// connected pattern component); the headroom covers hand-built
// multi-component rules, and anything larger falls back to a string
// overflow key — degenerate patterns stay correct, they just pay the
// allocation the common case avoids.
const maxUnitPivots = 6

// unitID is the comparable identity of a work unit: rule index plus the
// pivot candidate vector, in a fixed-size struct so the per-unit hot
// maintenance loop keys maps without building strings (unused slots hold
// graph.Invalid). Replaces the strings.Builder keys that allocated once
// per re-validated unit.
type unitID struct {
	rule     int32
	vec      [maxUnitPivots]graph.NodeID
	overflow string // pivots beyond maxUnitPivots, encoded; "" in the common case
}

func makeUnitID(ri int, cands []graph.NodeID) unitID {
	id := unitID{rule: int32(ri)}
	for i := range id.vec {
		id.vec[i] = graph.Invalid
	}
	copy(id.vec[:], cands[:min(len(cands), maxUnitPivots)])
	if len(cands) > maxUnitPivots {
		var b strings.Builder
		for _, c := range cands[maxUnitPivots:] {
			fmt.Fprintf(&b, ":%d", c)
		}
		id.overflow = b.String()
	}
	return id
}

// Detector maintains Vio(Σ, G) across updates. All mutations must go
// through Apply, which keeps the overlay's patches in lockstep with the
// graph.
type Detector struct {
	g      *graph.Graph
	ov     *graph.Overlay
	rules  []*core.GFD
	pivots []*workload.Pivot

	version uint64 // graph version the detector's report reflects

	// Per-rule artifacts compiled against the overlay's symbol table,
	// rebuilt on compaction (a fresh freeze owns a fresh table).
	progs []*core.LiteralProgram
	cqs   []*pattern.Compiled

	// Reusable matching state: the compiled matcher, the affected-pivot
	// scratch set, and the pin map.
	m        *match.Matcher
	affected *graph.EpochSet
	pin      map[int]graph.NodeID

	// compacted, when set, is invoked with the fresh overlay after each
	// compaction so co-holders of the old view (the owning Session) can
	// adopt it instead of silently decoupling into re-freeze-per-batch.
	compacted func(*graph.Overlay)

	// violations keyed by unit identity (rule index + pivot node vector),
	// so an affected unit's stale entries can be replaced atomically.
	byUnit map[unitID][]Violation
	// UnitsRevalidated counts units re-checked since construction — the
	// quantity the incremental-vs-full benchmarks compare.
	UnitsRevalidated int
}

// Violation mirrors validate.Violation (duplicated to keep the package
// free of a dependency cycle with the batch engines).
type Violation struct {
	Rule  string
	Match core.Match
}

// Key returns the canonical identity of a violation.
func (v Violation) Key() string {
	var b strings.Builder
	b.WriteString(v.Rule)
	for _, id := range v.Match {
		fmt.Fprintf(&b, ",%d", id)
	}
	return b.String()
}

// New builds a detector with an initial full validation of g. The graph
// is frozen once (cached per version — a session that already froze pays
// nothing) and never re-frozen per update batch afterwards.
func New(g *graph.Graph, set *core.Set) *Detector {
	return NewOnOverlay(graph.NewOverlay(g), set)
}

// NewOnOverlay is New over a caller-supplied overlay, which must be
// synced with its graph. A session (gfd.Session) uses it to share one
// maintained overlay across detectors and prepared rule sets instead of
// stacking a view per detector: the overlay's symbol table only ever
// grows, so artifacts compiled by earlier holders stay valid.
func NewOnOverlay(ov *graph.Overlay, set *core.Set) *Detector {
	g := ov.Graph()
	d := &Detector{
		g:       g,
		ov:      ov,
		rules:   set.Rules(),
		version: g.Version(),
		pin:     make(map[int]graph.NodeID, 2),
		byUnit:  make(map[unitID][]Violation),
	}
	for _, f := range d.rules {
		d.pivots = append(d.pivots, workload.ComputePivot(f.Q))
	}
	d.compile()
	d.fullValidate()
	return d
}

// fullValidate rebuilds the violation index with a complete sweep, unit
// by unit. No block sizes are needed (the detector balances nothing), so
// the sweep skips the workload model's neighborhood measuring entirely.
// Used at construction and as the recovery path when mutations reached
// the graph outside this detector's Apply.
func (d *Detector) fullValidate() {
	clear(d.byUnit)
	for ri := range d.rules {
		cands := d.candidates(ri)
		workload.EachVector(cands, false, func(vec []graph.NodeID) bool {
			d.revalidateUnit(ri, vec)
			return true
		})
	}
}

// compile (re)builds every symbol-table-bound artifact against the
// current overlay: rule labels and literal constants are interned first
// (the growing-table contract — an absent name must mean "can never
// occur"), then patterns and X → Y programs are lowered and the matcher
// and the affected-pivot set are rebound.
func (d *Detector) compile() {
	syms := d.ov.Syms()
	for _, f := range d.rules {
		pattern.InternInto(f.Q, syms)
		f.InternLiterals(syms)
	}
	d.progs = d.progs[:0]
	d.cqs = d.cqs[:0]
	for _, f := range d.rules {
		d.cqs = append(d.cqs, pattern.CompileFor(f.Q, syms))
		d.progs = append(d.progs, f.CompileLiterals(syms))
	}
	d.m = match.NewMatcher(d.ov)
	d.affected = graph.NewEpochSet(d.ov.NumNodes())
}

// candidates returns the per-component pivot candidate lists of rule ri
// over the overlay's candidate classes.
func (d *Detector) candidates(ri int) [][]graph.NodeID {
	pv := d.pivots[ri]
	cands := make([][]graph.NodeID, pv.Arity())
	for i := range cands {
		cands[i] = pv.CandidatesIn(d.ov, i)
	}
	return cands
}

// Overlay exposes the maintained delta view so a session can hand it to
// the next detector (see NewOnOverlay) and to its prepared bundles.
func (d *Detector) Overlay() *graph.Overlay { return d.ov }

// OnCompact registers fn to be called with the fresh overlay whenever
// Apply compacts. The owning session uses it to follow the detector onto
// the new view — without it, the session's copy of the old overlay would
// desync at the detector's next Apply and every prepared Detect would
// quietly fall back to a full re-freeze per batch.
func (d *Detector) OnCompact(fn func(*graph.Overlay)) { d.compacted = fn }

// Synced reports whether the detector's maintained state reflects the
// graph's current version — true as long as every mutation since the
// detector was built went through its Apply. A direct graph mutation (or
// an Apply on another holder of the shared overlay) desynchronizes it;
// holders must then rebuild.
func (d *Detector) Synced() bool { return d.version == d.g.Version() }

// Report returns the current violation set, canonically sorted.
func (d *Detector) Report() []Violation {
	var out []Violation
	for _, vs := range d.byUnit {
		out = append(out, vs...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// Len returns |Vio(Σ, G)| as currently maintained.
func (d *Detector) Len() int {
	n := 0
	for _, vs := range d.byUnit {
		n += len(vs)
	}
	return n
}

// Apply performs the updates through the overlay (which mutates the
// underlying graph in lockstep) and incrementally refreshes the violation
// set, returning the IDs of any inserted nodes in update order. When the
// accumulated delta crosses compactFraction of the base size, the overlay
// is compacted into a fresh snapshot and the compiled artifacts rebound —
// the only time a freeze happens after construction.
func (d *Detector) Apply(ups ...Update) []graph.NodeID {
	// Mutations may have reached the graph since the last Apply without
	// this detector seeing them — through another holder of the shared
	// overlay (Session.Apply, a sibling detector) or a direct graph
	// mutation. The touched-set refresh below only covers this batch, so
	// a stale detector must recover with a full sweep; silently stamping
	// the new version would report Synced while missing violations.
	stale := d.version != d.g.Version()
	if stale && !d.ov.Synced() {
		// The overlay missed the mutations too (they bypassed it
		// entirely, or a co-holder compacted onto a different view):
		// rebuild from a fresh freeze — cached when the graph was already
		// frozen at this version — and publish the rebuilt view like a
		// compaction, so the owning session re-couples instead of the two
		// sides desyncing each other once per batch forever.
		d.ov = graph.NewOverlay(d.g)
		d.compile()
		if d.compacted != nil {
			d.compacted(d.ov)
		}
	}
	inserted := ApplyTo(d.ov, ups...)
	if stale {
		d.fullValidate()
	} else {
		touched := make(graph.NodeSet)
		for _, up := range ups {
			switch u := up.(type) {
			case AddEdge:
				touched.Add(u.From)
				touched.Add(u.To)
			case SetAttr:
				touched.Add(u.Node)
			}
		}
		for _, id := range inserted {
			touched.Add(id)
		}
		d.refresh(touched)
	}
	// Apply keeps the overlay in lockstep with the graph, so the detector
	// is synced at the new version (a Session polls Synced to decide
	// whether the overlay can be shared with the next detector).
	d.version = d.g.Version()
	if d.ov.NeedsCompaction() {
		d.ov = graph.NewOverlay(d.g)
		d.compile()
		if d.compacted != nil {
			d.compacted(d.ov)
		}
	}
	return inserted
}

// refresh re-validates every unit whose pivot lies within its component
// radius of a touched node (computed on the post-update overlay, so edge
// insertions that extend neighborhoods are covered).
func (d *Detector) refresh(touched graph.NodeSet) {
	for ri := range d.rules {
		pv := d.pivots[ri]
		// Affected pivot candidates per component: label-compatible nodes
		// within the component radius of any touched node.
		affected := make([]map[graph.NodeID]struct{}, pv.Arity())
		for i := range affected {
			affected[i] = make(map[graph.NodeID]struct{})
		}
		for v := range touched {
			for i := 0; i < pv.Arity(); i++ {
				labelSym := d.cqs[ri].NodeSyms[pv.Vars[i]]
				d.affected.Reset()
				d.ov.BlockInto(d.affected, v, pv.Radii[i])
				for _, z := range d.affected.Members() {
					if pattern.LabelMatchesSym(labelSym, d.ov.Label(z)) {
						affected[i][z] = struct{}{}
					}
				}
			}
		}
		// Re-validate every unit that includes an affected candidate in
		// some component; other components range over all candidates.
		d.forAffectedUnits(ri, affected, func(cands []graph.NodeID) {
			d.revalidateUnit(ri, cands)
		})
	}
}

// forAffectedUnits enumerates candidate vectors where at least one
// position takes an affected candidate. To avoid re-enumerating the full
// cross product, it fixes each position to its affected set in turn and
// lets earlier positions range over all candidates only when a later
// position is pinned to an affected one (inclusion–exclusion-free
// covering with duplicates suppressed by a seen-set).
func (d *Detector) forAffectedUnits(ri int, affected []map[graph.NodeID]struct{}, fn func([]graph.NodeID)) {
	pv := d.pivots[ri]
	k := pv.Arity()
	all := d.candidates(ri)
	seen := make(map[unitID]struct{})
	vec := make([]graph.NodeID, k)
	var rec func(pos, pinned int)
	rec = func(pos, pinned int) {
		if pos == k {
			if pinned == 0 {
				return
			}
			key := makeUnitID(ri, vec)
			if _, dup := seen[key]; dup {
				return
			}
			seen[key] = struct{}{}
			if distinct(vec) {
				fn(vec)
			}
			return
		}
		// Option A: this position takes an affected candidate.
		for z := range affected[pos] {
			vec[pos] = z
			rec(pos+1, pinned+1)
		}
		// Option B: this position ranges over all candidates. Valid when
		// the vector is already pinned to an affected candidate, or some
		// later position still can be.
		later := pinned > 0
		for j := pos + 1; j < k && !later; j++ {
			if len(affected[j]) > 0 {
				later = true
			}
		}
		if later {
			for _, z := range all[pos] {
				if _, isAffected := affected[pos][z]; isAffected {
					continue // already covered by option A
				}
				vec[pos] = z
				rec(pos+1, pinned)
			}
		}
	}
	rec(0, 0)
}

func distinct(vec []graph.NodeID) bool {
	for i := 0; i < len(vec); i++ {
		for j := i + 1; j < len(vec); j++ {
			if vec[i] == vec[j] {
				return false
			}
		}
	}
	return true
}

// revalidateUnit recomputes the violations of one unit (rule + pivot
// candidate vector) with the compiled matcher — pivots pinned, which by
// locality keeps every match inside the unit's data block, X pushed into
// the search as the rule's guard and X → Y checked by its literal program
// over the overlay's interned attributes — and replaces the unit's entry
// in the index.
func (d *Detector) revalidateUnit(ri int, cands []graph.NodeID) {
	f := d.rules[ri]
	pv := d.pivots[ri]
	d.UnitsRevalidated++

	clear(d.pin)
	for i, z := range cands {
		d.pin[pv.Vars[i]] = z
	}
	var found []Violation
	prog := d.progs[ri]
	opts := match.Options{Pin: d.pin, Guard: prog.Guard()}
	d.m.Enumerate(f.Q, opts, func(m core.Match) bool {
		if prog.IsViolation(d.ov, m) {
			found = append(found, Violation{Rule: f.Name, Match: append(core.Match(nil), m...)})
		}
		return true
	})
	key := makeUnitID(ri, cands)
	if len(found) == 0 {
		delete(d.byUnit, key)
	} else {
		d.byUnit[key] = found
	}
}
