// Package pattern implements graph patterns Q[x̄] (Section 2 of the GFD
// paper): directed graphs whose nodes carry labels (possibly the wildcard
// '_') and are in bijection µ with a list of variables x̄. Patterns impose
// the topological constraint of a GFD; package match finds their
// isomorphic images in data graphs.
package pattern

import (
	"fmt"
	"strings"
)

// Wildcard is the special label '_' that matches any node or edge label.
const Wildcard = "_"

// Var is a pattern variable name (an element of x̄).
type Var string

// Node is a pattern node: the variable µ⁻¹(u) naming it and its label.
type Node struct {
	Var   Var
	Label string
}

// Edge is a directed pattern edge between node indices, with a label that
// may be Wildcard.
type Edge struct {
	From, To int
	Label    string
}

// Pattern is a graph pattern Q[x̄]. Nodes are indexed 0..len(Nodes)-1; the
// variable list x̄ is exactly the Var fields in index order (µ is the
// identity on indices). A pattern holds labels as strings only; whoever
// runs it on a graph lowers it onto that graph's symbol table (Compile)
// and keeps the lowering. Do not mutate a pattern while a lowering of it
// is in use.
type Pattern struct {
	Nodes []Node
	Edges []Edge

	varIdx map[Var]int
	out    [][]int // edge indices leaving node i
	in     [][]int // edge indices entering node i
}

// New returns an empty pattern.
func New() *Pattern {
	return &Pattern{varIdx: make(map[Var]int)}
}

// AddNode appends a pattern node for variable v with the given label and
// returns its index. It panics if v is already used: µ must be a bijection.
func (p *Pattern) AddNode(v Var, label string) int {
	if p.varIdx == nil {
		p.varIdx = make(map[Var]int)
	}
	if _, dup := p.varIdx[v]; dup {
		panic(fmt.Sprintf("pattern: duplicate variable %q", v))
	}
	idx := len(p.Nodes)
	p.Nodes = append(p.Nodes, Node{Var: v, Label: label})
	p.varIdx[v] = idx
	p.out = append(p.out, nil)
	p.in = append(p.in, nil)
	return idx
}

// AddEdge appends a directed pattern edge from -> to with the given label
// (Wildcard allowed).
func (p *Pattern) AddEdge(from, to int, label string) {
	if from < 0 || from >= len(p.Nodes) || to < 0 || to >= len(p.Nodes) {
		panic(fmt.Sprintf("pattern: edge (%d,%d) out of range", from, to))
	}
	ei := len(p.Edges)
	p.Edges = append(p.Edges, Edge{From: from, To: to, Label: label})
	p.out[from] = append(p.out[from], ei)
	p.in[to] = append(p.in[to], ei)
}

// VarIndex returns the node index of variable v and whether it exists.
func (p *Pattern) VarIndex(v Var) (int, bool) {
	i, ok := p.varIdx[v]
	return i, ok
}

// Vars returns x̄: the variable list in node-index order.
func (p *Pattern) Vars() []Var {
	out := make([]Var, len(p.Nodes))
	for i, n := range p.Nodes {
		out[i] = n.Var
	}
	return out
}

// NumNodes returns |V_Q|.
func (p *Pattern) NumNodes() int { return len(p.Nodes) }

// NumEdges returns |E_Q|.
func (p *Pattern) NumEdges() int { return len(p.Edges) }

// Size returns |Q| = |V_Q| + |E_Q|, the pattern size measure of the paper.
func (p *Pattern) Size() int { return len(p.Nodes) + len(p.Edges) }

// OutEdges returns the indices into Edges of edges leaving node i.
func (p *Pattern) OutEdges(i int) []int { return p.out[i] }

// InEdges returns the indices into Edges of edges entering node i.
func (p *Pattern) InEdges(i int) []int { return p.in[i] }

// Degree returns the undirected degree of node i.
func (p *Pattern) Degree(i int) int { return len(p.out[i]) + len(p.in[i]) }

// Clone returns a deep copy of p.
func (p *Pattern) Clone() *Pattern {
	c := New()
	for _, n := range p.Nodes {
		c.AddNode(n.Var, n.Label)
	}
	for _, e := range p.Edges {
		c.AddEdge(e.From, e.To, e.Label)
	}
	return c
}

// String renders the pattern compactly, e.g.
// "(x:flight), (y:city); x-[to]->y".
func (p *Pattern) String() string {
	var b strings.Builder
	for i, n := range p.Nodes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s:%s)", n.Var, n.Label)
	}
	if len(p.Edges) > 0 {
		b.WriteString("; ")
		for i, e := range p.Edges {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%s-[%s]->%s", p.Nodes[e.From].Var, e.Label, p.Nodes[e.To].Var)
		}
	}
	return b.String()
}

// LabelMatches reports whether a pattern label accepts a concrete label
// under wildcard semantics: '_' matches anything, otherwise equality.
func LabelMatches(patternLabel, concrete string) bool {
	return patternLabel == Wildcard || patternLabel == concrete
}
