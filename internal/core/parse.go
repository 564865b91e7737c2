package core

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"gfd/internal/pattern"
)

// The rule file format is line-oriented:
//
//	# comment
//	gfd <name> {
//	  node <var> <label>          # label may be _ (wildcard)
//	  edge <var> <label> <var>    # label may be _
//	  when <literal> [, <literal> ...]
//	  then <literal> [, <literal> ...]
//	}
//
// A literal is either  x.A = y.B  (variable literal, y must be a declared
// variable) or  x.A = "c" / x.A = c  (constant literal; a quoted constant
// takes Go escapes, so `\"` stands for a quote inside it). `when` may be
// omitted (X = ∅). Multiple `when`/`then` lines accumulate.
//
// Names, variables, labels and attributes are never empty and hold no
// whitespace; a name holds no '"', a variable none of `".,=` and an
// attribute none of `",=`, which the format reads as structure there.

// ParseRules reads a rule file and returns the rule set.
func ParseRules(r io.Reader) (*Set, error) {
	set := MustNewSet()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineno := 0

	var (
		cur  *ruleBuilder
		name string
	)
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case fields[0] == "gfd":
			if cur != nil {
				return nil, fmt.Errorf("rules: line %d: nested gfd block", lineno)
			}
			if len(fields) != 3 || fields[2] != "{" {
				return nil, fmt.Errorf("rules: line %d: want `gfd <name> {`", lineno)
			}
			name = strings.Trim(fields[1], `"`)
			cur = &ruleBuilder{q: pattern.New()}
		case fields[0] == "}":
			if cur == nil {
				return nil, fmt.Errorf("rules: line %d: stray '}'", lineno)
			}
			f, err := New(name, cur.q, cur.x, cur.y)
			if err == nil {
				err = writable(f)
			}
			if err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineno, err)
			}
			if err := set.Add(f); err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineno, err)
			}
			cur = nil
		case cur == nil:
			return nil, fmt.Errorf("rules: line %d: %q outside gfd block", lineno, fields[0])
		case fields[0] == "node":
			if len(fields) != 3 {
				return nil, fmt.Errorf("rules: line %d: want `node <var> <label>`", lineno)
			}
			v := pattern.Var(fields[1])
			if _, dup := cur.q.VarIndex(v); dup {
				return nil, fmt.Errorf("rules: line %d: duplicate variable %q", lineno, v)
			}
			cur.q.AddNode(v, fields[2])
		case fields[0] == "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("rules: line %d: want `edge <from> <label> <to>`", lineno)
			}
			from, ok := cur.q.VarIndex(pattern.Var(fields[1]))
			if !ok {
				return nil, fmt.Errorf("rules: line %d: unknown variable %q", lineno, fields[1])
			}
			to, ok := cur.q.VarIndex(pattern.Var(fields[3]))
			if !ok {
				return nil, fmt.Errorf("rules: line %d: unknown variable %q", lineno, fields[3])
			}
			cur.q.AddEdge(from, to, fields[2])
		case fields[0] == "when", fields[0] == "then":
			rest := strings.TrimSpace(line[len(fields[0]):])
			lits, err := parseLiterals(rest, cur.q)
			if err != nil {
				return nil, fmt.Errorf("rules: line %d: %v", lineno, err)
			}
			if fields[0] == "when" {
				cur.x = append(cur.x, lits...)
			} else {
				cur.y = append(cur.y, lits...)
			}
		default:
			return nil, fmt.Errorf("rules: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if cur != nil {
		return nil, fmt.Errorf("rules: unterminated gfd block %q", name)
	}
	return set, nil
}

type ruleBuilder struct {
	q    *pattern.Pattern
	x, y []Literal
}

func parseLiterals(s string, q *pattern.Pattern) ([]Literal, error) {
	parts := splitLiterals(s)
	lits := make([]Literal, 0, len(parts))
	for _, part := range parts {
		l, err := parseLiteral(strings.TrimSpace(part), q)
		if err != nil {
			return nil, err
		}
		lits = append(lits, l)
	}
	return lits, nil
}

// splitLiterals splits on commas that are outside double quotes.
func splitLiterals(s string) []string {
	var out []string
	for {
		part, rest, ok := cutOutsideQuotes(s, ',')
		out = append(out, part)
		if !ok {
			return out
		}
		s = rest
	}
}

func parseLiteral(s string, q *pattern.Pattern) (Literal, error) {
	lhs, rhs, ok := cutOutsideQuotes(s, '=')
	if !ok {
		return Literal{}, fmt.Errorf("bad literal %q: missing '='", s)
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	xv, xa, ok := strings.Cut(lhs, ".")
	if !ok {
		return Literal{}, fmt.Errorf("bad literal %q: left side must be var.attr", s)
	}
	x := pattern.Var(xv)
	if _, declared := q.VarIndex(x); !declared {
		return Literal{}, fmt.Errorf("bad literal %q: unknown variable %q", s, xv)
	}
	// Right side: var.attr if it parses as one and the var is declared;
	// otherwise a constant (quotes stripped).
	if yv, yb, isDotted := strings.Cut(rhs, "."); isDotted && !strings.HasPrefix(rhs, `"`) {
		if _, declared := q.VarIndex(pattern.Var(yv)); declared {
			return VarEq(x, xa, pattern.Var(yv), yb), nil
		}
	}
	if c, err := strconv.Unquote(rhs); err == nil {
		return Const(x, xa, c), nil
	}
	return Const(x, xa, rhs), nil
}

// cutOutsideQuotes cuts s around the first sep outside double quotes.
// Inside quotes a backslash escapes the byte after it, as in the Go-quoted
// constants WriteRules writes.
func cutOutsideQuotes(s string, sep byte) (string, string, bool) {
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inQuote && c == '\\':
			i++
		case c == '"':
			inQuote = !inQuote
		case c == sep && !inQuote:
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}

// writable reports why f cannot be written in a form ParseRules reads back
// as f, or nil: a name, variable, label or attribute that is empty, holds
// whitespace or holds a character the format reads as structure there
// (see above). ParseRules holds every rule it reads to it too, so what one
// accepts the other inverts.
func writable(f *GFD) error {
	if err := f.Check(); err != nil {
		return err
	}
	var err error
	token := func(kind, s, reserved string) {
		if err == nil && (s == "" || strings.ContainsFunc(s, unicode.IsSpace) || strings.ContainsAny(s, reserved)) {
			err = fmt.Errorf("gfd %q: %s %q cannot stand in a rule file", f.Name, kind, s)
		}
	}
	token("name", f.Name, `"`)
	for _, n := range f.Q.Nodes {
		token("variable", string(n.Var), `".,=`)
		token("label", n.Label, "")
	}
	for _, e := range f.Q.Edges {
		token("label", e.Label, "")
	}
	for _, side := range [2][]Literal{f.X, f.Y} {
		for _, l := range side {
			token("attribute", l.A, `",=`)
			if l.Kind == Variable {
				token("attribute", l.B, `",=`)
			}
		}
	}
	return err
}

// WriteRules serializes the rule set in the ParseRules format. It writes
// nothing and fails when some rule has a name, variable, label or
// attribute the format cannot carry (see the format above).
func WriteRules(w io.Writer, s *Set) error {
	for _, f := range s.Rules() {
		if err := writable(f); err != nil {
			return fmt.Errorf("rules: %v", err)
		}
	}
	bw := bufio.NewWriter(w)
	for _, f := range s.Rules() {
		fmt.Fprintf(bw, "gfd %s {\n", f.Name)
		for _, n := range f.Q.Nodes {
			fmt.Fprintf(bw, "  node %s %s\n", n.Var, n.Label)
		}
		for _, e := range f.Q.Edges {
			fmt.Fprintf(bw, "  edge %s %s %s\n", f.Q.Nodes[e.From].Var, e.Label, f.Q.Nodes[e.To].Var)
		}
		if len(f.X) > 0 {
			fmt.Fprintf(bw, "  when %s\n", formatLiterals(f.X))
		}
		if len(f.Y) > 0 {
			fmt.Fprintf(bw, "  then %s\n", formatLiterals(f.Y))
		}
		fmt.Fprintln(bw, "}")
	}
	return bw.Flush()
}

func formatLiterals(ls []Literal) string {
	parts := make([]string, len(ls))
	for i, l := range ls {
		if l.Kind == Constant {
			parts[i] = fmt.Sprintf("%s.%s = %q", l.X, l.A, l.C)
		} else {
			parts[i] = fmt.Sprintf("%s.%s = %s.%s", l.X, l.A, l.Y, l.B)
		}
	}
	return strings.Join(parts, ", ")
}
