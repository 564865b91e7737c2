// Package core implements the GFD language itself — the primary
// contribution of Fan, Wu & Xu, "Functional Dependencies for Graphs"
// (SIGMOD 2016, Section 3): functional dependencies of the form
//
//	ϕ = (Q[x̄], X → Y)
//
// where Q is a graph pattern (topological constraint) and X, Y are sets of
// literals over x̄ (attribute-value dependency). Constant literals x.A = c
// give GFDs the power of CFDs; variable literals x.A = y.B give them the
// power of FDs and EGDs.
package core

import (
	"fmt"
	"strings"
	"sync"

	"gfd/internal/graph"
	"gfd/internal/pattern"
)

// LiteralKind distinguishes constant literals (x.A = c) from variable
// literals (x.A = y.B).
type LiteralKind uint8

const (
	// Constant is a literal of the form x.A = c.
	Constant LiteralKind = iota
	// Variable is a literal of the form x.A = y.B.
	Variable
)

// Literal is an equality atom over the variables of a pattern.
type Literal struct {
	X    pattern.Var // left variable
	A    string      // left attribute
	Kind LiteralKind
	C    string      // constant value, when Kind == Constant
	Y    pattern.Var // right variable, when Kind == Variable
	B    string      // right attribute, when Kind == Variable
}

// Const builds a constant literal x.A = c.
func Const(x pattern.Var, a, c string) Literal {
	return Literal{X: x, A: a, Kind: Constant, C: c}
}

// VarEq builds a variable literal x.A = y.B.
func VarEq(x pattern.Var, a string, y pattern.Var, b string) Literal {
	return Literal{X: x, A: a, Kind: Variable, Y: y, B: b}
}

// IsTautology reports whether the literal is trivially true (x.A = x.A).
// Note that per GFD semantics a tautology in Y is *not* vacuous: it forces
// h(x) to carry attribute A (Section 3, "GFDs can specify certain type
// information").
func (l Literal) IsTautology() bool {
	return l.Kind == Variable && l.X == l.Y && l.A == l.B
}

func (l Literal) String() string {
	if l.Kind == Constant {
		return fmt.Sprintf("%s.%s = %q", l.X, l.A, l.C)
	}
	return fmt.Sprintf("%s.%s = %s.%s", l.X, l.A, l.Y, l.B)
}

// GFD is a graph functional dependency ϕ = (Q[x̄], X → Y). It holds no
// lowering onto any graph: the engines compile its pattern and literals
// (pattern.Compile, CompileLiterals) onto the symbol table they run on and
// keep the result themselves.
type GFD struct {
	Name string
	Q    *pattern.Pattern
	X    []Literal // antecedent; empty means "always applies"
	Y    []Literal // consequent; empty means trivially satisfied

	// Literal variables resolved to pattern node indices, bound once on
	// first evaluation (literal checking runs per match on the engines'
	// hot path; re-hashing variable names there would dominate). Do not
	// mutate Q, X, or Y after a GFD has been evaluated.
	bindOnce sync.Once
	xb, yb   []boundLiteral
}

// New constructs a GFD and validates that every literal variable occurs in
// the pattern.
func New(name string, q *pattern.Pattern, x, y []Literal) (*GFD, error) {
	f := &GFD{Name: name, Q: q, X: x, Y: y}
	if err := f.Check(); err != nil {
		return nil, err
	}
	return f, nil
}

// MustNew is New that panics on error, for tests and static rule tables.
func MustNew(name string, q *pattern.Pattern, x, y []Literal) *GFD {
	f, err := New(name, q, x, y)
	if err != nil {
		panic(err)
	}
	return f
}

// Check verifies well-formedness: the name holds no ',' (a violation's
// Key, its set identity, is the name and then ",<id>" per match node, so a
// comma would let two violations share a key; the report order reads the
// name and IDs apart and needs no such rule), and each literal references
// only variables of Q and non-empty attribute names.
func (f *GFD) Check() error {
	if strings.Contains(f.Name, ",") {
		return fmt.Errorf("gfd %q: ',' in the rule name", f.Name)
	}
	if f.Q == nil {
		return fmt.Errorf("gfd %s: nil pattern", f.Name)
	}
	check := func(side string, ls []Literal) error {
		for _, l := range ls {
			if _, ok := f.Q.VarIndex(l.X); !ok {
				return fmt.Errorf("gfd %s: %s literal %v: unknown variable %q", f.Name, side, l, l.X)
			}
			if l.A == "" {
				return fmt.Errorf("gfd %s: %s literal %v: empty attribute", f.Name, side, l)
			}
			if l.Kind == Variable {
				if _, ok := f.Q.VarIndex(l.Y); !ok {
					return fmt.Errorf("gfd %s: %s literal %v: unknown variable %q", f.Name, side, l, l.Y)
				}
				if l.B == "" {
					return fmt.Errorf("gfd %s: %s literal %v: empty attribute", f.Name, side, l)
				}
			}
		}
		return nil
	}
	if err := check("X", f.X); err != nil {
		return err
	}
	return check("Y", f.Y)
}

// IsConstant reports whether ϕ is a constant GFD: X and Y consist of
// constant literals only.
func (f *GFD) IsConstant() bool {
	for _, l := range f.X {
		if l.Kind != Constant {
			return false
		}
	}
	for _, l := range f.Y {
		if l.Kind != Constant {
			return false
		}
	}
	return true
}

// IsVariable reports whether ϕ is a variable GFD: X and Y consist of
// variable literals only.
func (f *GFD) IsVariable() bool {
	for _, l := range f.X {
		if l.Kind != Variable {
			return false
		}
	}
	for _, l := range f.Y {
		if l.Kind != Variable {
			return false
		}
	}
	return true
}

// Normalize rewrites ϕ into its normal form (Section 4.2): a set of GFDs
// with the same pattern and antecedent, each with a single consequent
// literal. Tautologies x.A = x.A in Y are kept (they force the attribute to
// exist); an empty Y yields no normalized rules (ϕ holds trivially).
func (f *GFD) Normalize() []*GFD {
	out := make([]*GFD, 0, len(f.Y))
	for i, l := range f.Y {
		out = append(out, &GFD{
			Name: fmt.Sprintf("%s#%d", f.Name, i),
			Q:    f.Q,
			X:    f.X,
			Y:    []Literal{l},
		})
	}
	return out
}

// Size returns |ϕ| = |Q| + |X| + |Y|, the size measure used in complexity
// statements.
func (f *GFD) Size() int { return f.Q.Size() + len(f.X) + len(f.Y) }

func (f *GFD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: (%s, ", f.Name, f.Q)
	writeLits(&b, f.X)
	b.WriteString(" -> ")
	writeLits(&b, f.Y)
	b.WriteString(")")
	return b.String()
}

func writeLits(b *strings.Builder, ls []Literal) {
	if len(ls) == 0 {
		b.WriteString("∅")
		return
	}
	for i, l := range ls {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(l.String())
	}
}

// ---- Semantics ----------------------------------------------------------
//
// Two evaluation paths implement the semantics below. The compiled path —
// CompileLiterals in program.go — lowers literals onto a
// snapshot's symbol table and is what every engine runs per match. The
// map-based methods on GFD (SatisfiesX/SatisfiesY/Holds/IsViolation) read
// the mutable graph's Attrs maps directly; they are retained as the
// differential-test oracle and for call sites that interleave evaluation
// with mutation (noise injection).

// Match is an instantiation h(x̄) of a pattern's variables in a graph:
// Match[i] is the graph node matched by pattern node i.
type Match []graph.NodeID

// boundLiteral is a Literal with its variables resolved to pattern node
// indices, so per-match evaluation skips the VarIndex map lookups.
type boundLiteral struct {
	xi   int
	a    string
	kind LiteralKind
	c    string
	yi   int
	b    string
}

func bindLiterals(q *pattern.Pattern, ls []Literal) []boundLiteral {
	if len(ls) == 0 {
		return nil
	}
	out := make([]boundLiteral, len(ls))
	for i, l := range ls {
		b := boundLiteral{a: l.A, kind: l.Kind, c: l.C, b: l.B}
		b.xi, _ = q.VarIndex(l.X)
		if l.Kind == Variable {
			b.yi, _ = q.VarIndex(l.Y)
		}
		out[i] = b
	}
	return out
}

// bind resolves X and Y once per rule; safe under concurrent evaluation
// (workers share rule pointers).
func (f *GFD) bind() {
	f.bindOnce.Do(func() {
		f.xb = bindLiterals(f.Q, f.X)
		f.yb = bindLiterals(f.Q, f.Y)
	})
}

// evalLiteral evaluates a single bound literal on a match. ok is false when
// a referenced attribute is missing; eq is meaningful only when ok.
func evalLiteral(g *graph.Graph, h Match, l boundLiteral) (eq, ok bool) {
	xv, xok := g.Attr(h[l.xi], l.a)
	if !xok {
		return false, false
	}
	if l.kind == Constant {
		return xv == l.c, true
	}
	yv, yok := g.Attr(h[l.yi], l.b)
	if !yok {
		return false, false
	}
	return xv == yv, true
}

// SatisfiesX reports h(x̄) |= X. Following the paper's semantics, a literal
// whose attribute is missing on the matched node makes X unsatisfied (and
// hence the GFD trivially satisfied for this match) — this accommodates the
// semi-structured nature of graphs.
func (f *GFD) SatisfiesX(g *graph.Graph, h Match) bool {
	f.bind()
	for _, l := range f.xb {
		eq, ok := evalLiteral(g, h, l)
		if !ok || !eq {
			return false
		}
	}
	return true
}

// SatisfiesY reports h(x̄) |= Y. In contrast to X, a literal in Y requires
// the attribute to exist: a missing attribute is a violation.
func (f *GFD) SatisfiesY(g *graph.Graph, h Match) bool {
	f.bind()
	for _, l := range f.yb {
		eq, ok := evalLiteral(g, h, l)
		if !ok || !eq {
			return false
		}
	}
	return true
}

// Holds reports h(x̄) |= X → Y: if h satisfies X then it satisfies Y.
func (f *GFD) Holds(g *graph.Graph, h Match) bool {
	if !f.SatisfiesX(g, h) {
		return true
	}
	return f.SatisfiesY(g, h)
}

// IsViolation reports whether h(x̄) is a violation of ϕ: h |= X but h ̸|= Y.
// Map-based oracle path; engines use LiteralProgram.IsViolation.
func (f *GFD) IsViolation(g *graph.Graph, h Match) bool {
	return f.SatisfiesX(g, h) && !f.SatisfiesY(g, h)
}
