package core

import (
	"slices"
	"strconv"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// litInst is one lowered literal: variables resolved to pattern node
// indices (done once per rule by bind) and attribute names / constant
// values resolved to symbol codes of one table (done once per (rule,
// snapshot) pair by CompileLiterals). Per-match evaluation is then a
// couple of binary searches and integer compares — no strings, no maps.
type litInst struct {
	xi, yi int32
	a, b   graph.Sym // attribute name codes
	c      graph.Sym // constant value code, when kind == Constant
	kind   LiteralKind
}

// LiteralProgram is a GFD's X → Y condition compiled onto a symbol table —
// the attribute-side analogue of pattern.Compiled. A program is tied to
// the table it was lowered on: evaluate it only against a view backed by
// that table (the frozen Snapshot it was compiled for, or an overlay view
// whose table grows with updates). The GFD keeps no program: its holder (a validate.Bundle, an
// incremental.Detector) compiles one per table it runs on and keeps it.
type LiteralProgram struct {
	x, y []litInst
	src  []boundLiteral // X as bound, parallel to x: names for rendering

	// neverX / neverY record that some literal of the side references a
	// name or constant the table has never seen. Such a literal cannot
	// hold on any match (a missing attribute name means no node carries
	// it; a missing constant means no node value equals it), so the whole
	// side short-circuits with zero per-match work. NOTE: only sound for
	// tables that intern every rule constant up front or never grow
	// (Snapshot tables are frozen; an overlay view's growing table has the
	// rule's literals interned first, InternLiterals).
	neverX, neverY bool

	// guard is X lowered for evaluation inside the search (see Guard),
	// built with the program; nil when X is empty.
	guard *Guard
}

// CompileLiterals lowers ϕ's literals onto syms. It only reads the table
// (Lookup, never Intern), so compiling against a shared snapshot table is
// safe from concurrent workers.
func (f *GFD) CompileLiterals(syms *graph.Symbols) *LiteralProgram {
	f.bind()
	p := &LiteralProgram{}
	p.x, p.neverX = lowerLiterals(f.xb, syms)
	p.y, p.neverY = lowerLiterals(f.yb, syms)
	p.src = f.xb
	p.guard = GroupGuard([]*LiteralProgram{p}, nil)
	return p
}

func lowerLiterals(ls []boundLiteral, syms *graph.Symbols) ([]litInst, bool) {
	if len(ls) == 0 {
		return nil, false
	}
	never := false
	out := make([]litInst, len(ls))
	for i, l := range ls {
		in := litInst{xi: int32(l.xi), kind: l.kind, a: syms.Lookup(l.a)}
		if in.a == graph.NoSym {
			never = true
		}
		if l.kind == Constant {
			in.c = syms.Lookup(l.c)
			if in.c == graph.NoSym {
				never = true
			}
		} else {
			in.yi = int32(l.yi)
			in.b = syms.Lookup(l.b)
			if in.b == graph.NoSym {
				never = true
			}
		}
		out[i] = in
	}
	return out, never
}

// InternLiterals interns every attribute name and constant of ϕ's literals
// into syms, so a later CompileLiterals against the same table resolves
// them all. Required before compiling against an overlay view's growing
// table: a constant lowered to NoSym must mean "this value can never
// occur", which only holds if the table is the sole authority on the value
// universe.
func (f *GFD) InternLiterals(syms *graph.Symbols) {
	for _, side := range [2][]Literal{f.X, f.Y} {
		for _, l := range side {
			syms.Intern(l.A)
			if l.Kind == Constant {
				syms.Intern(l.C)
			} else {
				syms.Intern(l.B)
			}
		}
	}
}

// holds evaluates one instruction on a match: true iff the referenced
// attributes exist and the equality holds (the compiled evalLiteral).
func (l *litInst) holds(src *graph.Snapshot, h Match) bool {
	xv, ok := src.AttrSym(h[l.xi], l.a)
	if !ok {
		return false
	}
	if l.kind == Constant {
		return xv == l.c
	}
	yv, ok := src.AttrSym(h[l.yi], l.b)
	return ok && xv == yv
}

// SatisfiesX reports h(x̄) |= X under the paper's semantics: a missing
// attribute leaves X unsatisfied (and the GFD trivially satisfied).
func (p *LiteralProgram) SatisfiesX(src *graph.Snapshot, h Match) bool {
	if p.neverX {
		return false
	}
	for i := range p.x {
		if !p.x[i].holds(src, h) {
			return false
		}
	}
	return true
}

// SatisfiesY reports h(x̄) |= Y; in Y a missing attribute is a violation.
func (p *LiteralProgram) SatisfiesY(src *graph.Snapshot, h Match) bool {
	if p.neverY {
		return false
	}
	for i := range p.y {
		if !p.y[i].holds(src, h) {
			return false
		}
	}
	return true
}

// IsViolation reports whether h(x̄) violates ϕ: h |= X but h ̸|= Y.
func (p *LiteralProgram) IsViolation(src *graph.Snapshot, h Match) bool {
	return p.SatisfiesX(src, h) && !p.SatisfiesY(src, h)
}

// Guard is the X side of one rule — or of every member rule of a group
// that enumerates one shared pattern — lowered for evaluation inside the
// search (literal pushdown): each instruction names the pattern nodes it
// reads, in the enumerated pattern's node indices, and the member whose X
// it belongs to. The matcher runs an instruction at the first depth where
// its operands are bound and drops the member from the prefix's live set
// when it fails; a prefix is pruned only once every member is dead, so a
// group guard never hides a match that satisfies some member's X. Y never
// enters a guard — a match can only be ruled out by X before it is
// complete — and IsViolation stays the final check on every match the
// search yields. A Guard is immutable and, like its programs, tied to one
// symbol table.
type Guard struct {
	insts []GuardInst
	// live is the initial live-member mask: bit k is set unless member k
	// can never satisfy X on this table (neverX). Zero means no member can
	// fire, and the enumeration is skipped outright.
	live uint64
}

// GuardInst is one guard instruction: a lowered X literal over the
// enumerated pattern's node indices plus the member bit it clears when it
// fails.
type GuardInst struct {
	lit litInst
	bit uint64
	src *boundLiteral // names for Format
}

// maxGuardMembers is the number of members a guard tracks individually;
// members past it share the last bit, carry no instructions and so never
// die — the group still prunes nothing they might match.
const maxGuardMembers = 64

// Guard returns X as a single-member guard over the rule's own node
// indices: nil when X is empty (nothing to push down), a dead guard when
// X can never hold on this table.
func (p *LiteralProgram) Guard() *Guard { return p.guard }

// GroupGuard lowers the X sides of rules enumerated through one shared
// pattern into one guard. Member k is progs[k]; perms[k][i] is the shared
// pattern's node for the member's rule node i (the members' patterns are
// isomorphic, so every rule node has one). A nil perms, or a nil perms[k],
// is the identity. The result is nil when no instruction could ever prune
// (every X empty), so unguarded patterns keep the matcher's plain search.
func GroupGuard(progs []*LiteralProgram, perms [][]int) *Guard {
	g := &Guard{}
	for k, p := range progs {
		bit := uint64(1) << min(k, maxGuardMembers-1)
		if p.neverX {
			continue
		}
		g.live |= bit
		if k >= maxGuardMembers-1 {
			continue
		}
		node := func(i int32) int32 {
			if perms == nil || perms[k] == nil {
				return i
			}
			return int32(perms[k][i])
		}
		for i, l := range p.x {
			l.xi = node(l.xi)
			if l.kind == Variable {
				l.yi = node(l.yi)
			} else {
				l.yi = l.xi
			}
			g.insts = append(g.insts, GuardInst{lit: l, bit: bit, src: &p.src[i]})
		}
	}
	if len(g.insts) == 0 && g.live != 0 {
		return nil
	}
	return g
}

// Insts returns the guard's instructions. Shared; read-only.
func (g *Guard) Insts() []GuardInst { return g.insts }

// Live returns the initial live-member mask.
func (g *Guard) Live() uint64 { return g.live }

// Dead reports that no member of the guard can ever satisfy X on its
// table: every match would be rejected, so callers skip the enumeration.
// A nil guard is never dead.
func (g *Guard) Dead() bool { return g != nil && g.live == 0 }

// SeedsAt returns the seeds of pattern node z: each live member's first
// constant literal on z, as (attribute, value) codes in member and X order
// without repeats, when every live member has one, and nil otherwise. Only
// the holders of some pair can bind z in a match that satisfies some X.
// With no live member the list is empty, not nil: nothing passes. Members
// past the 63rd carry no instructions, so a larger group is never seeded;
// neither is a nil guard (X empty).
func (g *Guard) SeedsAt(z int) []graph.AttrPair {
	if g == nil {
		return nil
	}
	seeds := []graph.AttrPair{}
	var have uint64
	for i := range g.insts {
		gi := &g.insts[i]
		if gi.lit.kind != Constant || int(gi.lit.xi) != z || have&gi.bit != 0 {
			continue
		}
		have |= gi.bit
		if kv := (graph.AttrPair{Name: gi.lit.a, Val: gi.lit.c}); !slices.Contains(seeds, kv) {
			seeds = append(seeds, kv)
		}
	}
	if g.live&^have != 0 {
		return nil
	}
	return seeds
}

// Operands returns the pattern nodes the instruction reads; y == x for a
// constant literal.
func (gi *GuardInst) Operands() (x, y int) { return int(gi.lit.xi), int(gi.lit.yi) }

// Bit returns the member bit the instruction clears when it fails.
func (gi *GuardInst) Bit() uint64 { return gi.bit }

// Holds evaluates the instruction on a partial match whose operands are
// bound.
func (gi *GuardInst) Holds(src *graph.Snapshot, h Match) bool { return gi.lit.holds(src, h) }

// Format renders the instruction as a literal over q's variables (q is the
// enumerated pattern, whose node indices the instruction reads).
func (gi *GuardInst) Format(q *pattern.Pattern) string {
	s := string(q.Nodes[gi.lit.xi].Var) + "." + gi.src.a + " = "
	if gi.lit.kind == Constant {
		return s + strconv.Quote(gi.src.c)
	}
	return s + string(q.Nodes[gi.lit.yi].Var) + "." + gi.src.b
}
