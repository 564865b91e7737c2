// Package incremental maintains the violation set Vio(Σ, G) under node
// insertion, edge insertion and attribute assignment — the incremental
// detection the paper cites as follow-on work (Fan et al., TKDE 2014),
// transplanted to GFDs by the classical delta rule ΔQ = Σᵢ Q[Rᵢ := ΔRᵢ].
//
// An insertion never destroys a match, and an assignment changes the X → Y
// status only of matches through its node. So a match whose status a batch
// changed contains an inserted or attribute-touched node or an inserted
// edge. Apply re-decides the maintained violations through an
// attribute-touched node, then adds the violations of guarded enumerations
// pinned through the delta: each touched node at every label-compatible
// pattern node, each inserted edge at every pattern edge that admits it.
// Per-update work is bounded by the matches through the touched element,
// not by its c-hop ball (Berkholz, Keppeler & Schweikardt).
//
// The detector enumerates with the batch engines' match.Matcher and
// core.LiteralProgram, lowered and planned by a validate.Bundle over the
// overlay (it lowers nothing itself), over the graph's live
// graph.Overlay: a frozen snapshot plus the patches of every Apply, which
// the overlay owns (the graph reads through them and is never written).
// The graph owns that overlay, so detectors, sessions and direct callers
// of the same graph all write through one view. After a batch the overlay
// settles: past a fraction of the base it compacts into a fresh snapshot
// over the same symbol table, and the detector adopts the new live
// overlay, whose bundle shares the previous one's lowering and plans; node
// IDs survive, so the maintained set carries over.
package incremental

import (
	"encoding/binary"
	"slices"

	"gfd/internal/core"
	"gfd/internal/graph"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/validate"
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

// ApplyTo plays updates onto an overlay (which patches its view and
// advances its graph's version), returning the IDs of inserted nodes in
// update order. Shared by Detector.Apply and the session layer's
// Session.Apply, which then settle the overlay (graph.Overlay.Settle).
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

// Detector maintains Vio(Σ, G) across updates. Mutations through its
// Apply are folded in by the delta rule; mutations that reached the graph
// another way (Session.Apply, another detector, a direct mutation) are
// folded in by a full sweep on the next Apply.
type Detector struct {
	g   *graph.Graph
	ov  *graph.Overlay
	set *core.Set

	version uint64 // graph version the detector's report reflects

	// b is the bundle over the adopted overlay, which owns every rule's
	// lowering and plans; progs and cqs hold its programs and compiled
	// patterns in rule order, read once per adopted overlay. A compaction
	// keeps the symbol table, so the next bundle shares them; the overlay
	// started after a direct mutation of a building graph freezes a fresh
	// table, which gets fresh ones.
	b     *validate.Bundle
	rules []*core.GFD
	progs []*core.LiteralProgram
	cqs   []*pattern.Compiled

	// Reusable matching state: a matcher reading b's plans, the pins (each
	// To is one element of at), the rule being enumerated and the callback
	// bound to it once, so pinning and enumerating allocate nothing; the
	// match key scratch and a batch's touched nodes (ascending).
	m       *match.Matcher
	pins    [2]match.Pin
	at      [2]graph.NodeID
	ri      int
	visit   func(core.Match) bool
	key     []byte
	touched []graph.NodeID

	// vio[ri] holds rule ri's violating matches keyed by their node IDs,
	// four bytes each, so rules never share a key whatever their names.
	vio        []map[string]core.Match
	enumerated int // matches the guarded enumerations yielded, for tests
}

// New builds a detector with an initial full validation of g over the
// graph's live overlay (graph.NewOverlay), which every detector and session
// of g shares: building one freezes nothing the graph has not frozen, and
// the overlay's symbol table only ever grows, so artifacts compiled by
// earlier holders stay valid.
func New(g *graph.Graph, set *core.Set) *Detector {
	d := &Detector{
		g:       g,
		set:     set,
		rules:   set.Rules(),
		version: g.Version(),
	}
	d.pins = [2]match.Pin{{To: d.at[:1]}, {To: d.at[1:]}}
	d.visit = d.onMatch
	d.adopt()
	d.fullValidate()
	return d
}

// adopt moves the detector onto the graph's live overlay — the one it last
// wrote through, or the fresh one a compaction or a direct mutation
// started — and, when that is a different overlay, takes the rules'
// programs and compiled patterns from a bundle over it and a matcher that
// reads the bundle's rule-side plans, so no update re-plans a rule.
func (d *Detector) adopt() {
	ov := graph.NewOverlay(d.g)
	if ov == d.ov {
		return
	}
	d.ov = ov
	d.b = validate.NewBundleOver(ov.Snapshot, d.set, d.b)
	d.progs, d.cqs = d.progs[:0], d.cqs[:0]
	for _, f := range d.rules {
		d.progs = append(d.progs, d.b.Program(f))
		d.cqs = append(d.cqs, d.b.Plans().Compiled(f.Q))
	}
	d.m = d.b.Plans().Get(ov.Snapshot)
}

// fullValidate rebuilds the violation set with one guarded, unpinned
// enumeration per rule. Used at construction and as the recovery path when
// mutations reached the graph outside this detector's Apply.
func (d *Detector) fullValidate() {
	d.vio = make([]map[string]core.Match, len(d.rules))
	for ri := range d.rules {
		d.vio[ri] = make(map[string]core.Match)
		d.enumerate(ri, 0)
	}
}

// Overlay returns the overlay the detector last enumerated over: the
// graph's live overlay as of its last Apply.
func (d *Detector) Overlay() *graph.Overlay { return d.ov }

// Synced reports whether the detector's maintained state reflects the
// graph's current version — true as long as every mutation since the
// detector was built went through its Apply. A mutation any other way
// desynchronizes it until its next Apply, which sweeps in full.
func (d *Detector) Synced() bool { return d.version == d.g.Version() }

// Report returns the maintained violation set in the canonical order of
// validate.Report.Sort (rule name, then node IDs as integers), the order
// of a batch Detect. The matches are shared with the detector; callers
// must not modify them.
func (d *Detector) Report() validate.Report {
	out := make(validate.Report, 0, d.Len())
	for ri, vs := range d.vio {
		for _, h := range vs {
			out = append(out, validate.Violation{Rule: d.rules[ri].Name, Match: h})
		}
	}
	out.Sort()
	return out
}

// Len returns |Vio(Σ, G)| as currently maintained.
func (d *Detector) Len() int {
	n := 0
	for _, vs := range d.vio {
		n += len(vs)
	}
	return n
}

// Apply performs the updates through the graph's live overlay (which
// patches its view and advances the graph's version) and refreshes the
// violation set by the delta rule (see the package doc), returning the IDs
// of any inserted nodes in update order. A detector that missed mutations
// since its last Apply recovers with a full sweep instead. The batch then
// settles the overlay: when the accumulated delta crosses
// graph.CompactFraction of the base, the view is flattened into a fresh
// snapshot and the detector adopts the new live overlay.
func (d *Detector) Apply(ups ...Update) []graph.NodeID {
	d.adopt()
	stale := d.version != d.g.Version()
	inserted := ApplyTo(d.ov, ups...)
	if stale {
		d.fullValidate()
	} else {
		d.refresh(ups, inserted)
	}
	d.version = d.g.Version()
	d.ov.Settle()
	d.adopt()
	return inserted
}

// refresh applies the delta rule to one batch already played onto the
// overlay. First every maintained violation through an attribute-touched
// node is re-decided on the post-batch attributes. Then each touched node
// is pinned at every label-compatible pattern node, and each inserted edge
// whose endpoints were not touched at every pattern edge that admits it: a
// match through such an edge contains both endpoints, so a touched
// endpoint's enumeration already covers it.
func (d *Detector) refresh(ups []Update, inserted []graph.NodeID) {
	// An inserted node is in no maintained violation, so the violations
	// through touched nodes are those through attribute-touched ones.
	touched := append(d.touched[:0], inserted...)
	for _, up := range ups {
		if u, ok := up.(SetAttr); ok {
			touched = append(touched, u.Node)
		}
	}
	slices.Sort(touched)
	touched = slices.Compact(touched)
	d.touched = touched
	isTouched := func(v graph.NodeID) bool {
		_, ok := slices.BinarySearch(touched, v)
		return ok
	}
	if len(touched) > 0 {
		for ri, vs := range d.vio {
			for k, h := range vs {
				if slices.ContainsFunc(h, isTouched) && !d.progs[ri].IsViolation(d.ov.Snapshot, h) {
					delete(vs, k)
				}
			}
		}
	}
	for _, v := range touched {
		for ri := range d.rules {
			for a, sym := range d.cqs[ri].NodeSyms {
				if pattern.LabelMatchesSym(sym, d.ov.Label(v)) {
					d.pins[0].Node, d.at[0] = a, v
					d.enumerate(ri, 1)
				}
			}
		}
	}
	for _, up := range ups {
		u, ok := up.(AddEdge)
		if !ok || isTouched(u.From) || isTouched(u.To) {
			continue
		}
		for ri, f := range d.rules {
			syms := d.cqs[ri].NodeSyms
			for _, e := range f.Q.Edges {
				// A graph self-loop can only be the image of a pattern
				// self-loop, and vice versa: matches are injective.
				if (e.From == e.To) != (u.From == u.To) || !pattern.LabelMatches(e.Label, u.Label) ||
					!pattern.LabelMatchesSym(syms[e.From], d.ov.Label(u.From)) ||
					!pattern.LabelMatchesSym(syms[e.To], d.ov.Label(u.To)) {
					continue
				}
				d.pins[0].Node, d.at[0] = e.From, u.From
				d.pins[1].Node, d.at[1] = e.To, u.To
				if e.From == e.To {
					d.enumerate(ri, 1) // one pattern node binds both ends
				} else {
					d.enumerate(ri, 2)
				}
			}
		}
	}
}

// enumerate adds to the maintained set every violation of rule ri among
// the matches through the pins d.pins[:pinned], with X pushed
// into the search as the rule's guard and X → Y decided by its literal
// program over the overlay's interned attributes.
func (d *Detector) enumerate(ri, pinned int) {
	d.ri = ri
	d.m.Enumerate(d.rules[ri].Q, match.Options{Pins: d.pins[:pinned], Guard: d.progs[ri].Guard()}, d.visit)
}

// onMatch records one match of the rule being enumerated if it violates.
func (d *Detector) onMatch(h core.Match) bool {
	d.enumerated++
	if d.progs[d.ri].IsViolation(d.ov.Snapshot, h) {
		d.key = d.key[:0]
		for _, id := range h {
			d.key = binary.LittleEndian.AppendUint32(d.key, uint32(id))
		}
		if _, ok := d.vio[d.ri][string(d.key)]; !ok {
			d.vio[d.ri][string(d.key)] = slices.Clone(h)
		}
	}
	return true
}
