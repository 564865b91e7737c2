package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
)

// The text format is line-oriented:
//
//	# comment
//	node <name> <label> [attr=value ...]
//	edge <from> <label> <to>
//
// Tokens are separated by spaces or tabs. Any part of a token may be
// double-quoted with Go's escapes (strconv.Quote), so a name, label,
// attribute name or value can hold any bytes; Write quotes exactly the
// tokens that need it. Node names are mapped to dense NodeIDs in order of
// first appearance. An attribute splits at its first '=' outside quotes;
// a node line names each attribute at most once.

// Write serializes g to w in the text format. Node names are n<ID>.
func Write(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for id := 0; id < g.NumNodes(); id++ {
		fmt.Fprintf(bw, "node n%d %s", id, quoteToken(g.Label(NodeID(id)), false))
		attrs := g.NodeAttrs(NodeID(id))
		keys := make([]string, 0, len(attrs))
		for k := range attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(bw, " %s=%s", quoteToken(k, true), quoteToken(attrs[k], false))
		}
		fmt.Fprintln(bw)
	}
	var err error
	g.Edges(func(e Edge) bool {
		_, err = fmt.Fprintf(bw, "edge n%d %s n%d\n", e.From, quoteToken(e.Label, false), e.To)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// quoteToken returns s as Read reads it back: as is, or quoted when it is
// empty or holds a quote, a backslash, whitespace, a byte that is not
// printable UTF-8, or (for an attribute name) an '='.
func quoteToken(s string, key bool) string {
	plain := s != ""
	for _, r := range s {
		if r == '"' || r == '\\' || r == ' ' || r == utf8.RuneError || !strconv.IsPrint(r) || key && r == '=' {
			plain = false
			break
		}
	}
	if plain {
		return s
	}
	return strconv.Quote(s)
}

// token is one field of a line: its text with quotes resolved, and the
// index in it of the first '=' outside quotes (-1 if none).
type token struct {
	s  string
	eq int
}

// Read parses the text format from r and returns the graph plus the mapping
// from node names to IDs.
func Read(r io.Reader) (*Graph, map[string]NodeID, error) {
	g := New(0, 0)
	names := make(map[string]NodeID)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		toks, err := splitQuoted(line)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: %v", lineno, err)
		}
		fields := make([]string, len(toks))
		for i, t := range toks {
			fields[i] = t.s
		}
		switch fields[0] {
		case "node":
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("graph: line %d: node needs name and label", lineno)
			}
			name, label := fields[1], fields[2]
			if _, dup := names[name]; dup {
				return nil, nil, fmt.Errorf("graph: line %d: duplicate node %q", lineno, name)
			}
			var attrs Attrs
			if len(fields) > 3 {
				attrs = make(Attrs, len(fields)-3)
				for _, kv := range toks[3:] {
					if kv.eq < 0 {
						return nil, nil, fmt.Errorf("graph: line %d: bad attribute %q", lineno, kv.s)
					}
					k := kv.s[:kv.eq]
					if _, dup := attrs[k]; dup {
						return nil, nil, fmt.Errorf("graph: line %d: duplicate attribute %q", lineno, k)
					}
					attrs[k] = kv.s[kv.eq+1:]
				}
			}
			names[name] = g.AddNode(label, attrs)
		case "edge":
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("graph: line %d: edge needs from, label, to", lineno)
			}
			from, ok := names[fields[1]]
			if !ok {
				return nil, nil, fmt.Errorf("graph: line %d: unknown node %q", lineno, fields[1])
			}
			to, ok := names[fields[3]]
			if !ok {
				return nil, nil, fmt.Errorf("graph: line %d: unknown node %q", lineno, fields[3])
			}
			if err := g.AddEdge(from, to, fields[2]); err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: %w", lineno, err)
			}
		default:
			return nil, nil, fmt.Errorf("graph: line %d: unknown directive %q", lineno, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return g, names, nil
}

// splitQuoted splits a line on spaces and tabs outside quotes and resolves
// each quoted part (`key="a value"`, `"a key"=v`) with Go's escapes. A
// quoted empty string is a token of its own, so a line that is not blank
// yields at least one token. It fails on an unterminated or malformed
// quote.
func splitQuoted(line string) ([]token, error) {
	var out []token
	var cur strings.Builder
	started, eq := false, -1
	for i := 0; i < len(line); {
		switch c := line[i]; {
		case c == '"':
			q, err := strconv.QuotedPrefix(line[i:])
			if err != nil {
				return nil, fmt.Errorf("unterminated or malformed quote at column %d", i+1)
			}
			u, _ := strconv.Unquote(q) // a valid prefix unquotes
			cur.WriteString(u)
			started = true
			i += len(q)
		case c == ' ' || c == '\t':
			if started {
				out = append(out, token{cur.String(), eq})
				cur.Reset()
				started, eq = false, -1
			}
			i++
		default:
			if c == '=' && eq < 0 {
				eq = cur.Len()
			}
			cur.WriteByte(c)
			started = true
			i++
		}
	}
	if started {
		out = append(out, token{cur.String(), eq})
	}
	return out, nil
}
