package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Rules lower where they run. A rule's literals are lowered onto a symbol
// table by validate's rule side, once per (rule set, symbol table) and
// shared by every bundle over that table: NewBundleOver lowers each rule's
// literals, Program any other rule an engine runs, ruleGroup.bind each
// group's pivot. Patterns and plans have one owner, a match.Plans per
// table (the rule side's, or a match.NewMatcher's own): Plans.Compiled
// lowers each pattern once, and every plan reads it. The incremental
// detector, the baselines and the session read their lowerings from a
// bundle. A memo on the pattern or the rule would bring back a staleness
// rule of its own beside those owners.
var (
	lowerMemo  = regexp.MustCompile(`(CompileFor|ProgramFor)\(`)
	lowerAny   = regexp.MustCompile(`(CompileLiterals|InternLiterals|InternInto)\(|pattern\.Compile\(`)
	lowerPlan  = regexp.MustCompile(`pattern\.Compile\(`)
	readerPkgs = []string{"internal/incremental/", "internal/baseline/", "internal/session/"}
	// planOwners are the only files under internal/ that lower a pattern.
	planOwners = []string{"internal/match/matcher.go"}
)

// lowerViolations returns, sorted, "file:line" of every line of a non-test
// .go file under root that breaks the lowering rule: a lowering memo
// anywhere, a lowering in a package that reads its lowerings from a
// bundle, or a pattern lowered under internal/ outside its owner.
func lowerViolations(t *testing.T, root string) []string {
	t.Helper()
	var bad []string
	walkGo(t, root, func(path, rel string) error {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		reader := slices.ContainsFunc(readerPkgs, func(p string) bool { return strings.HasPrefix(rel, p) })
		owner := !strings.HasPrefix(rel, "internal/") || slices.Contains(planOwners, rel)
		for i, line := range strings.Split(string(src), "\n") {
			if lowerMemo.MatchString(line) || reader && lowerAny.MatchString(line) || !owner && lowerPlan.MatchString(line) {
				bad = append(bad, fmt.Sprintf("%s:%d", rel, i+1))
			}
		}
		return nil
	})
	slices.Sort(bad)
	return bad
}

func TestRulesLowerWhereTheyRun(t *testing.T) {
	for _, at := range lowerViolations(t, repoRoot(t)) {
		t.Errorf("%s lowers a rule outside its owners: read it from a validate.Bundle (Program, Plans().Compiled) or a match.Plans", at)
	}
}

// TestRulesLowerGuardFires runs the lowering rule over a module that breaks
// each of its three clauses once, and its third twice (a pattern lowered
// by validate's rule side, which lowers literals only), beside the owner, a
// file outside internal/ and a test file that lower as they may: it must
// name the four lines and only them.
func TestRulesLowerGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                           "module m\n",
		"internal/validate/prepared.go":    "package validate\n\nvar _ = pattern.Compile(q, syms)\n",
		"internal/match/matcher.go":        "package match\n\nvar _ = pattern.Compile(q, syms)\n",
		"probes.go":                        "package main\n\nvar _ = pattern.Compile(q, syms)\n",
		"internal/core/memo.go":            "package core\n\nfunc (f *GFD) ProgramFor(s *Symbols) {}\n",
		"internal/session/session.go":      "package session\n\nfunc f() {\n\tg.InternLiterals(syms)\n}\n",
		"internal/workload/pivot.go":       "package workload\n\nvar _ = pattern.Compile(q, syms)\n",
		"internal/session/session_test.go": "package session\n\nvar _ = pattern.Compile(q, syms)\n",
	})
	want := []string{"internal/core/memo.go:3", "internal/session/session.go:4", "internal/validate/prepared.go:3", "internal/workload/pivot.go:3"}
	if got := lowerViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the lowering rule reports %v, want %v", got, want)
	}
}

// importBans lists the packages (directories under the module root) whose
// non-test files must not import a package, and why.
var importBans = []struct{ pkg, banned, why string }{
	// One scheduler: balancing policy (LPT reassignment, backoff, retry
	// budgets) lives in the unit scheduler of internal/validate;
	// internal/dist is an executor under it. Importing the workload
	// package there again is the first step of growing a second scheduler.
	{"internal/dist", "internal/workload", "scheduling policy belongs to internal/validate"},
	// Incremental detection without units: the detector enumerates through
	// the delta (pinned touched nodes and inserted edges); work units,
	// pivots and their radius balls belong to the batch engines.
	{"internal/incremental", "internal/workload", "units belong to the batch engines"},
}

// importViolations returns, sorted, "file: imports path" for every
// non-test .go file of a banned-from package under root that imports its
// banned package, resolved against the module path in root's go.mod.
func importViolations(t *testing.T, root string) []string {
	t.Helper()
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	line, _, _ := strings.Cut(string(mod), "\n")
	modPath, ok := strings.CutPrefix(line, "module ")
	if !ok {
		t.Fatalf("%s/go.mod does not begin with its module line", root)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, ban := range importBans {
		dir := filepath.Join(root, filepath.FromSlash(ban.pkg))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("%s: %v", ban.pkg, err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == modPath+"/"+ban.banned {
					bad = append(bad, fmt.Sprintf("%s/%s: imports %s (%s)", ban.pkg, name, path, ban.why))
				}
			}
		}
	}
	slices.Sort(bad)
	return bad
}

func TestImportBans(t *testing.T) {
	for _, v := range importViolations(t, repoRoot(t)) {
		t.Error(v)
	}
}

// TestImportBansGuardFires runs the import rule over a module where each
// banned-from package imports its banned package once, in one of its
// files, beside a clean file, a test file that may import it and a package
// outside the bans that does: it must name the two files and only them.
func TestImportBansGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                              "module m\n",
		"internal/dist/coord.go":              "package dist\n\nimport (\n\t\"fmt\"\n\tw \"m/internal/workload\"\n)\n",
		"internal/dist/wire.go":               "package dist\n\nimport \"m/internal/validate\"\n",
		"internal/dist/dist_test.go":          "package dist\n\nimport \"m/internal/workload\"\n",
		"internal/incremental/incremental.go": "package incremental\n\nimport \"m/internal/workload\"\n",
		"internal/validate/plan.go":           "package validate\n\nimport \"m/internal/workload\"\n",
	})
	want := []string{
		"internal/dist/coord.go: imports m/internal/workload (scheduling policy belongs to internal/validate)",
		"internal/incremental/incremental.go: imports m/internal/workload (units belong to the batch engines)",
	}
	if got := importViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the import rule reports %v, want %v", got, want)
	}
}

// fieldBan is a struct type whose fields must not mention a type, and why.
type fieldBan struct {
	file, typ string
	bad       func(ast.Node) bool
	why       string
}

var (
	// Open builds no symbol index: opening a .gfds file checks the symbol
	// directory Save wrote (one sequential pass of adjacent compares, no
	// hashing) and copies the table's blob, offsets and directory; a table
	// hashes its names only when an Intern first grows it. A []string of
	// names in graph.Flat, the image a file holds, or a call of the
	// slot-index builder on the open path (openFiles) brings back the
	// per-open rebuild the directory replaced.
	flatBan   = fieldBan{"internal/graph/persist.go", "Flat", isSliceOf("string"), "the symbol table's image is its blob, offsets and directory"}
	openFiles = []string{"internal/store/", "internal/graph/persist.go"}
	// Overlay reads hash nothing: a view reads a node's patched adjacency
	// and tuple through dense per-node slots (0: the base arrays, k: the
	// k-th copied list), so the nodes no update touched, most of them, cost
	// one slot load and no hash. A map keyed by node in the patch brings
	// the hash back onto every read; the label-keyed class map stays.
	patchBan = fieldBan{"internal/graph/snapshot.go", "patch", isMapKeyedBy("NodeID"), "overlay reads go through per-node slots"}
)

// isSliceOf matches a slice type of the named element type.
func isSliceOf(elem string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		a, ok := n.(*ast.ArrayType)
		return ok && a.Len == nil && isName(a.Elt, elem)
	}
}

// isMapKeyedBy matches a map type whose key type is named key.
func isMapKeyedBy(key string) func(ast.Node) bool {
	return func(n ast.Node) bool {
		m, ok := n.(*ast.MapType)
		return ok && isName(m.Key, key)
	}
}

// isName reports whether e is name, qualified or not.
func isName(e ast.Expr, name string) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == name
	case *ast.SelectorExpr:
		return x.Sel.Name == name
	}
	return false
}

// fieldViolations returns "file:line: why" for every field of ban's struct
// under root that mentions its banned type, at any depth, or one line if
// the file declares no such struct.
func fieldViolations(t *testing.T, root string, ban fieldBan) []string {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(ban.file)), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var st *ast.StructType
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == ban.typ {
			st, _ = ts.Type.(*ast.StructType)
		}
		return st == nil
	})
	if st == nil {
		return []string{fmt.Sprintf("%s: declares no struct %s", ban.file, ban.typ)}
	}
	var bad []string
	for _, field := range st.Fields.List {
		ast.Inspect(field.Type, func(n ast.Node) bool {
			if n != nil && ban.bad(n) {
				bad = append(bad, fmt.Sprintf("%s:%d: a field of %s: %s", ban.file, fset.Position(field.Pos()).Line, ban.typ, ban.why))
			}
			return true
		})
	}
	return bad
}

// openViolations returns, sorted, the open rule's violations under root:
// flatBan's, and "file:line" of every call of indexNames in a non-test
// file of openFiles.
func openViolations(t *testing.T, root string) []string {
	t.Helper()
	bad := fieldViolations(t, root, flatBan)
	fset := token.NewFileSet()
	walkGo(t, root, func(path, rel string) error {
		if !slices.ContainsFunc(openFiles, func(p string) bool { return strings.HasPrefix(rel, p) }) {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && isName(call.Fun, "indexNames") {
				bad = append(bad, fmt.Sprintf("%s:%d: calls indexNames", rel, fset.Position(call.Pos()).Line))
			}
			return true
		})
		return nil
	})
	slices.Sort(bad)
	return bad
}

func TestOpenBuildsNoSymbolIndex(t *testing.T) {
	for _, v := range openViolations(t, repoRoot(t)) {
		t.Errorf("%s: open checks the symbol directory and builds no index", v)
	}
}

// TestOpenBuildsNoSymbolIndexGuardFires runs the open rule over a module
// with a []string field in Flat, and a call of indexNames on the open path
// in a store file and, as a method, in persist.go, beside a test file on
// the open path and the symbol table's own call, which may: it must name
// the three lines and only them.
func TestOpenBuildsNoSymbolIndexGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                      "module m\n",
		"internal/graph/persist.go":   "package graph\n\ntype Flat struct {\n\tSymOff []uint32\n\tNames  []string\n}\n\nfunc open(t *table) { t.indexNames() }\n",
		"internal/graph/symbols.go":   "package graph\n\nfunc grow() { _ = indexNames(v) }\n",
		"internal/store/open.go":      "package store\n\nfunc open() {\n\t_ = indexNames(v)\n}\n",
		"internal/store/open_test.go": "package store\n\nfunc check() { _ = indexNames(v) }\n",
	})
	want := []string{
		"internal/graph/persist.go:5: a field of Flat: the symbol table's image is its blob, offsets and directory",
		"internal/graph/persist.go:8: calls indexNames",
		"internal/store/open.go:4: calls indexNames",
	}
	if got := openViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the open rule reports\n%q\nwant\n%q", got, want)
	}
}

func TestOverlayReadsHashNothing(t *testing.T) {
	for _, v := range fieldViolations(t, repoRoot(t), patchBan) {
		t.Error(v)
	}
}

// TestOverlayReadsHashNothingGuardFires runs the overlay rule over a patch
// with a map keyed by node nested in a field, beside the label-keyed class
// map, which may stay: it must name that field only, and a file without
// the patch struct must fail too.
func TestOverlayReadsHashNothingGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/snapshot.go": "package graph\n\ntype patch struct {\n\tslots   []int32\n\tclasses map[Sym][]NodeID\n\tbyNode  []map[NodeID]int32\n}\n",
	})
	want := []string{"internal/graph/snapshot.go:6: a field of patch: overlay reads go through per-node slots"}
	if got := fieldViolations(t, root, patchBan); !slices.Equal(got, want) {
		t.Fatalf("the overlay rule reports %q, want %q", got, want)
	}
	root = writeModule(t, map[string]string{"internal/graph/snapshot.go": "package graph\n\ntype view struct{}\n"})
	if got := fieldViolations(t, root, patchBan); len(got) != 1 {
		t.Fatalf("the overlay rule reports %q over a file without the patch struct, want one line", got)
	}
}
