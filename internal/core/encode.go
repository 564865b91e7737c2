package core

import (
	"fmt"

	"gfd/internal/pattern"
)

// This file provides the relational encodings of Section 3 (Example 5,
// items ϕ4, ϕ4', ϕ4''): FDs and CFDs over a relation R become GFDs over a
// graph in which every tuple of R is a node labeled R whose attributes are
// the tuple's fields.

// FromFD encodes a relational FD R(lhs → rhs) as the variable GFD
// (Q4[x, y], ⋀_{A∈lhs} x.A = y.A → ⋀_{B∈rhs} x.B = y.B), where Q4 is two
// isolated nodes labeled relation.
func FromFD(name, relation string, lhs, rhs []string) *GFD {
	q := pattern.New()
	q.AddNode("x", relation)
	q.AddNode("y", relation)
	var x, y []Literal
	for _, a := range lhs {
		x = append(x, VarEq("x", a, "y", a))
	}
	for _, b := range rhs {
		y = append(y, VarEq("x", b, "y", b))
	}
	return MustNew(name, q, x, y)
}

// CFDCondition is one fixed attribute-value binding of a CFD's pattern
// tuple, e.g. country = "44".
type CFDCondition struct {
	Attr  string
	Value string
}

// FromCFD encodes a two-tuple CFD R(conds ∧ lhs → rhs), e.g.
// R(country = 44, zip → street): both tuples must satisfy the constant
// bindings, agree on lhs, and then must agree on rhs.
func FromCFD(name, relation string, conds []CFDCondition, lhs, rhs []string) *GFD {
	q := pattern.New()
	q.AddNode("x", relation)
	q.AddNode("y", relation)
	var x, y []Literal
	for _, c := range conds {
		x = append(x, Const("x", c.Attr, c.Value), Const("y", c.Attr, c.Value))
	}
	for _, a := range lhs {
		x = append(x, VarEq("x", a, "y", a))
	}
	for _, b := range rhs {
		y = append(y, VarEq("x", b, "y", b))
	}
	return MustNew(name, q, x, y)
}

// FromConstantCFD encodes a single-tuple constant CFD such as
// R(country = 44, area_code = 131 → city = "Edi") as a GFD over the
// one-node pattern Q”4[x].
func FromConstantCFD(name, relation string, conds []CFDCondition, consequent []CFDCondition) *GFD {
	q := pattern.New()
	q.AddNode("x", relation)
	var x, y []Literal
	for _, c := range conds {
		x = append(x, Const("x", c.Attr, c.Value))
	}
	for _, c := range consequent {
		y = append(y, Const("x", c.Attr, c.Value))
	}
	return MustNew(name, q, x, y)
}

// RequireAttr builds the type-information GFD (Q[x], ∅ → x.A = x.A) for a
// single node labeled typ: every entity of that type must carry attribute a
// (Section 3, special case 3).
func RequireAttr(name, typ, a string) *GFD {
	q := pattern.New()
	q.AddNode("x", typ)
	return MustNew(name, q, nil, []Literal{VarEq("x", a, "x", a)})
}

// Set is an ordered collection Σ of GFDs with unique names.
type Set struct {
	rules []*GFD
	byKey map[string]int
}

// NewSet builds a Set from rules; duplicate names are rejected.
func NewSet(rules ...*GFD) (*Set, error) {
	s := &Set{byKey: make(map[string]int, len(rules))}
	for _, r := range rules {
		if err := s.Add(r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// MustNewSet is NewSet that panics on error.
func MustNewSet(rules ...*GFD) *Set {
	s, err := NewSet(rules...)
	if err != nil {
		panic(err)
	}
	return s
}

// Add appends a rule.
func (s *Set) Add(r *GFD) error {
	if _, dup := s.byKey[r.Name]; dup {
		return fmt.Errorf("gfd set: duplicate rule name %q", r.Name)
	}
	s.byKey[r.Name] = len(s.rules)
	s.rules = append(s.rules, r)
	return nil
}

// Rules returns the rules in insertion order. Shared slice; read-only.
func (s *Set) Rules() []*GFD { return s.rules }

// Len returns ‖Σ‖, the number of rules.
func (s *Set) Len() int { return len(s.rules) }

// Get returns the rule named name, or nil.
func (s *Set) Get(name string) *GFD {
	if i, ok := s.byKey[name]; ok {
		return s.rules[i]
	}
	return nil
}

// Size returns |Σ| = Σ_ϕ |ϕ|.
func (s *Set) Size() int {
	total := 0
	for _, r := range s.rules {
		total += r.Size()
	}
	return total
}
