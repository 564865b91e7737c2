// Package archtest holds the repository's architecture rules as tests. It
// has no non-test code; everything here runs under `go test ./...`. Each
// rule has a companion test that runs it over a small module written to a
// temporary directory, holding one violation of it, and checks that the
// rule names exactly that violation.
//
// TestExportedNamesHaveCallers keeps the internal API to what a caller
// reads: every exported top-level function and method declared in a
// non-test file under internal/ must be referenced by some non-test file of
// the module or of the benchmark module (benchmark/, which the walk from
// the module root covers), apart from its own declaration. Test-only
// helpers belong in _test.go files (export_test.go when another package's
// tests need them); the few exported names kept for tests on purpose are
// listed in keep, each with its reason.
//
// Known limit: matching is by name, not by type. A reference is any
// identifier with the declared name anywhere in the scanned files, so a dead
// method that shares its name with a live function or method (String,
// Close, Len, …) passes.
package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// keep lists the exported names that only tests call, on purpose. Keys are
// "pkg.Func" or "pkg.Type.Method".
var keep = map[string]string{
	"validate.SetChunkGranularity":   "tests plan one class member per unit to get long slot queues",
	"validate.Callback":              "tests drive the callback sink mode of the differential harnesses",
	"validate.Completeness.Complete": "tests assert a run's census is whole",
	"graph.Overlay.Delta":            "tests read an overlay's pending delta to check compaction",
	"graph.Graph.BuildSnapshot":      "freeze differential tests and benchmarks build at a fixed worker count",
	"fault.FromSeedProc":             "the dist chaos suite draws process fault plans from seeds",
	"match.Plans.Misses":             "tests count a rule side's plan-cache misses: none on a warm op",
	"fault.Injector.Fired":           "chaos tests log and assert how many faults fired",
	"baseline.DetectJoins":           "tests compare the BigDansing join baseline on a plain graph",
	"core.GFD.IsConstant":            "a paper notion; tests assert the CFD encodings with it",
	"core.Literal.IsTautology":       "a paper notion; tests assert the CFD encodings with it",
}

// implicit lists method names the standard library calls through an
// interface no file of the module names (errors.Is and errors.As unwrap).
var implicit = map[string]bool{"Unwrap": true, "Is": true, "As": true}

// decl is one exported function or method declared under internal/.
type decl struct {
	key    string // pkg.Func or pkg.Type.Method
	name   string
	method bool
}

func TestExportedNamesHaveCallers(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found above the test: %v", err)
	}
	decls, unused := scan(t, root)
	for _, key := range unused {
		if _, ok := keep[key]; !ok {
			t.Errorf("exported %s has no caller outside tests: delete it, unexport it or move it into a _test.go file", key)
		}
	}
	for key := range keep {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) {
			t.Errorf("keep lists %s, which is not declared under internal/ any more", key)
		}
	}
}

// TestExportedNamesGuardFires runs the scan over a small module whose one
// exported method only a test calls: the scan must name it, and only it.
func TestExportedNamesGuardFires(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module m\n",
		"internal/pattern/pattern.go": `package pattern

type Pattern struct{}

func New() *Pattern { return &Pattern{} }

func (p *Pattern) Size() int { return 0 }

func (p *Pattern) Unused() {}
`,
		"internal/pattern/pattern_test.go": `package pattern

func use() { New().Unused() }
`,
		"main.go": `package main

import "m/internal/pattern"

func main() { _ = pattern.New().Size() }
`,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, unused := scan(t, root); !slices.Equal(unused, []string{"pattern.Pattern.Unused"}) {
		t.Fatalf("scan reports %v unused, want [pattern.Pattern.Unused]", unused)
	}
}

// walkGo calls fn with the path, and the slash-separated path relative to
// root, of every non-test .go file under root, skipping hidden directories
// and testdata.
func walkGo(t *testing.T, root string, fn func(path, rel string) error) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		return fn(path, filepath.ToSlash(rel))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scan parses every non-test .go file under root and returns the exported
// functions and methods declared under root/internal and, sorted, the keys
// of those that no identifier of any scanned file names.
func scan(t *testing.T, root string) (decls []decl, unused []string) {
	t.Helper()
	fset := token.NewFileSet()
	refs := map[string]int{} // name -> identifiers of that name, declarations excluded
	walkGo(t, root, func(path, rel string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(rel, "internal/")
		declared := map[*ast.Ident]bool{}
		for _, n := range f.Decls {
			fn, ok := n.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			if !internal || !fn.Name.IsExported() {
				continue
			}
			d := decl{key: f.Name.Name + "." + fn.Name.Name, name: fn.Name.Name, method: fn.Recv != nil}
			if d.method {
				d.key = f.Name.Name + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls = append(decls, d)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name]++
			}
			return true
		})
		return nil
	})
	if len(decls) == 0 {
		t.Fatalf("no exported function or method found under %s", filepath.Join(root, "internal"))
	}
	for _, d := range decls {
		if refs[d.name] == 0 && !(d.method && implicit[d.name]) {
			unused = append(unused, d.key)
		}
	}
	slices.Sort(unused)
	return decls, unused
}

// recvType names a method's receiver type without its pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

// Rules lower where they run. A rule's pattern and literals are lowered
// onto a symbol table by two owners. validate's rule side lowers once per
// (rule set, symbol table), shared by every bundle over that table:
// NewBundleOver lowers each rule's literals and pattern, Program and the
// side's pattern lowering any other rule or pattern an engine runs,
// ruleGroup.bind each group's pivot, and every plan of every slot matcher
// reads the side's lowering. A match.Matcher lowers onto its view's table
// only for callers without a rule side, on a miss of its own plan cache.
// The incremental detector, the baselines and the session read their
// lowerings from a bundle. A memo on the pattern or the rule would bring
// back a staleness rule of its own beside those owners.
var (
	lowerMemo  = regexp.MustCompile(`(CompileFor|ProgramFor)\(`)
	lowerAny   = regexp.MustCompile(`(CompileLiterals|InternLiterals|InternInto)\(|pattern\.Compile\(`)
	lowerPlan  = regexp.MustCompile(`pattern\.Compile\(`)
	readerPkgs = []string{"internal/incremental/", "internal/baseline/", "internal/session/"}
	// planOwners are the only files under internal/ that lower a pattern.
	planOwners = []string{"internal/validate/prepared.go", "internal/match/matcher.go"}
)

// lowerViolations returns, sorted, "file:line" of every line of a non-test
// .go file under root that breaks the lowering rule: a lowering memo
// anywhere, a lowering in a package that reads its lowerings from a
// bundle, or a pattern lowered under internal/ outside its two owners.
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
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range lowerViolations(t, root) {
		t.Errorf("%s lowers a rule outside its owners: read it from a validate.Bundle (Program, Pattern, Plans) or a matcher's plan", at)
	}
}

// TestRulesLowerGuardFires runs the lowering rule over a module that breaks
// each of its three clauses once, beside the owners, a file outside
// internal/ and a test file that lower as they may: it must name the three
// lines and only them.
func TestRulesLowerGuardFires(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                           "module m\n",
		"internal/validate/prepared.go":    "package validate\n\nvar _ = pattern.Compile(q, syms)\n",
		"internal/match/matcher.go":        "package match\n\nvar _ = pattern.Compile(q, syms)\n",
		"probes.go":                        "package main\n\nvar _ = pattern.Compile(q, syms)\n",
		"internal/core/memo.go":            "package core\n\nfunc (f *GFD) ProgramFor(s *Symbols) {}\n",
		"internal/session/session.go":      "package session\n\nfunc f() {\n\tg.InternLiterals(syms)\n}\n",
		"internal/workload/pivot.go":       "package workload\n\nvar _ = pattern.Compile(q, syms)\n",
		"internal/session/session_test.go": "package session\n\nvar _ = pattern.Compile(q, syms)\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"internal/core/memo.go:3", "internal/session/session.go:4", "internal/workload/pivot.go:3"}
	if got := lowerViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the lowering rule reports %v, want %v", got, want)
	}
}
