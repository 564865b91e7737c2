// Package archtest holds the repository's architecture rules as tests. It
// has no non-test code; everything here runs under `go test ./...`. Each
// rule has a companion test that runs it over a small module written to a
// temporary directory, holding one violation of it, and checks that the
// rule names exactly that violation.
//
// TestExportedNamesHaveCallers keeps the internal API to what a caller
// reads: every exported top-level function and method declared in a
// non-test file under internal/ must be referenced by some non-test file of
// the module or of the benchmark module (benchmark/). References are
// resolved by type (go/types over the files `go list` names), so a dead
// method that shares its name with a live one fails. A method counts as
// called when a reference resolves to it, when its type is one the root
// package re-exports (the public API), or when its type satisfies an
// interface the code uses or the standard library calls through a value
// of type any (fmt's Stringer, errors' Unwrap, Is and As) and the method is
// one of that interface's. Test-only helpers belong in _test.go files
// (export_test.go when another package's tests need them); the few
// exported names kept for tests on purpose are listed in keep, each with
// its reason. Helpers that the tests of several packages share live in
// internal/testutil, whose callers are all tests: the rule leaves that one
// package out, and TestTestutilStaysInTests holds it instead.
//
// The same test keeps the exported fields of exported structs under
// internal/ to what a caller sets: each must be set by some non-test file
// of the module or of the benchmark module, by a composite-literal key (or
// positionally) or by an assignment resolved to the field by type. An
// assignment inside a method of the field's own struct type does not
// count, so a knob that only its defaults write fails. A field that only
// tests set is either a constant in waiting or listed in keep.
package archtest

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// keep lists the exported names that only tests call, and the exported
// fields that only tests set, on purpose. Keys are "pkg.Func",
// "pkg.Type.Method" or "pkg.Type.Field".
var keep = map[string]string{
	"validate.SetChunkGranularity":   "tests plan one class member per unit to get long slot queues",
	"validate.Completeness.Complete": "tests assert a run's census is whole",
	"graph.Overlay.Delta":            "tests read an overlay's pending delta to check compaction",
	"graph.Graph.BuildSnapshot":      "freeze differential tests and benchmarks build at a fixed worker count",
	"match.Plans.Misses":             "tests count a rule side's plan-cache misses: none on a warm op",
	"core.GFD.IsConstant":            "a paper notion; tests assert the CFD encodings with it",
	"core.Literal.IsTautology":       "a paper notion; tests assert the CFD encodings with it",
	"workload.Pivot.Seeds":           "tests compare a lowered pivot's seeds with oracles built from rule strings",

	"validate.Options.StreamBuffer":          "tests bound the stream's channel to force backpressure",
	"validate.Options.SplitThreshold":        "tests force or forbid the split of heavy units",
	"validate.Options.Retry":                 "the fault suites set retry budgets",
	"validate.Options.UnitDeadline":          "the fault suites cut stragglers at a deadline",
	"validate.DistOptions.Command":           "tests run a fleet that cannot start, and the chaos suites pass a worker's fault plan on its command line",
	"validate.DistOptions.HeartbeatInterval": "tests tighten the fleet's supervision",
	"validate.DistOptions.HandshakeTimeout":  "tests tighten the fleet's supervision",
	"validate.DistOptions.MaxRespawns":       "tests disable or bound respawn",
	"gen.SyntheticConfig.Attrs":              "validate's benchmarks build a graph with one attribute a node",
	"gen.SyntheticConfig.Domain":             "validate's benchmarks draw attribute values from a domain of 16",
	"pattern.Pattern.Nodes":                  "read by every package; AddNode builds it",
	"pattern.Pattern.Edges":                  "read by every package; AddEdge builds it",
}

// implicitSrc declares the interfaces the standard library calls through a
// value of type any, which no file of the module names: fmt prints a
// Stringer, errors.Is and errors.As unwrap and compare an error.
const implicitSrc = `package implicit

type (
	stringer  interface{ String() string }
	wrapper   interface{ Unwrap() error }
	wrappers  interface{ Unwrap() []error }
	isError   interface{ Is(error) bool }
	asError   interface{ As(any) bool }
)
`

// decl is one exported function or method declared under internal/.
type decl struct {
	key string // pkg.Func or pkg.Type.Method
	fn  *types.Func
}

// repoRoot returns the module root two directories above the test.
func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found above the test: %v", err)
	}
	return root
}

func TestExportedNamesHaveCallers(t *testing.T) {
	decls, unused, fields, unset := scan(t, repoRoot(t))
	for _, key := range unused {
		if _, ok := keep[key]; !ok {
			t.Errorf("exported %s has no caller outside tests: delete it, unexport it or move it into a _test.go file", key)
		}
	}
	for _, key := range unset {
		if _, ok := keep[key]; !ok {
			t.Errorf("exported field %s is set by no file outside tests: set it, delete it or make it a constant", key)
		}
	}
	for key := range keep {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.key == key }) && !slices.Contains(fields, key) {
			t.Errorf("keep lists %s, which is not declared under internal/ any more", key)
		}
	}
}

// TestExportedNamesGuardFires runs the scan over a small module with two
// dead methods: one only a test calls, and one that shares its name with a
// live method of another type, which a scan by name would pass. The scan
// must name both, and only them: a method the root package re-exports, one
// the code uses as an io.Writer and a String method count as called, and
// testutil, which only a test calls, is not the scan's.
func TestExportedNamesGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"internal/pattern/pattern.go": `package pattern

type Pattern struct{}

func New() *Pattern { return &Pattern{} }

func (p *Pattern) Size() int { return 0 }

func (p *Pattern) Unused() {}

func (p *Pattern) String() string { return "p" }

type Dead struct{}

func (Dead) Size() int { return 1 }

type Buf struct{}

func (*Buf) Write(b []byte) (int, error) { return len(b), nil }

type API struct{}

func (API) Get() int { return 2 }
`,
		"internal/pattern/pattern_test.go": `package pattern

func use() { New().Unused() }
`,
		"internal/testutil/testutil.go": `package testutil

func Shared() {}
`,
		"internal/pattern/shared_test.go": `package pattern_test

import "m/internal/testutil"

func use() { testutil.Shared() }
`,
		"m.go": `package m

import "m/internal/pattern"

type API = pattern.API
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"m/internal/pattern"
)

func main() {
	_ = pattern.Dead{}
	fmt.Fprint(&pattern.Buf{}, pattern.New().Size())
}
`,
	})
	want := []string{"pattern.Dead.Size", "pattern.Pattern.Unused"}
	if _, unused, _, _ := scan(t, root); !slices.Equal(unused, want) {
		t.Fatalf("scan reports %v unused, want %v", unused, want)
	}
}

// TestUnsetFieldsGuardFires runs the field rule over a small module: a
// struct whose fields are set by a composite-literal key, an assignment,
// an increment and, in another struct, positionally through an elided
// pointer literal, beside three that no non-test file sets: one set only
// in a method of its own type, one only in a test, and one whose name a
// field of another type shares and is set by. The scan must name those
// three, and only them; unexported fields and structs are not its concern.
func TestUnsetFieldsGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod": "module m\n\ngo 1.24\n",
		"internal/conf/conf.go": `package conf

type Config struct {
	Keyed, Assigned, Bumped int
	OwnOnly, TestOnly       int
	Shadowed                int
	hidden                  int
}

func New() *Config { return &Config{} }

func (c *Config) Normalize() { c.OwnOnly, c.hidden = 1, 2 }

type Other struct{ Shadowed int }

type Pair struct{ A, B int }

type private struct{ X int }
`,
		"internal/conf/conf_test.go": `package conf

var _ = Config{TestOnly: 1}
`,
		"cmd/tool/main.go": `package main

import "m/internal/conf"

func main() {
	c := conf.Config{Keyed: 1}
	c.Assigned = 2
	c.Bumped++
	c.Normalize()
	o := conf.Other{}
	o.Shadowed = 3
	_ = []*conf.Pair{{3, 4}}
	_ = conf.New()
}
`,
	})
	want := []string{"conf.Config.OwnOnly", "conf.Config.Shadowed", "conf.Config.TestOnly"}
	if _, _, _, unset := scan(t, root); !slices.Equal(unset, want) {
		t.Fatalf("scan reports %v unset, want %v", unset, want)
	}
}

// writeModule writes files (slash-separated paths to bodies) under a fresh
// temporary directory and returns it.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
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

// listed is one package as `go list -deps -export -json` prints it.
type listed struct {
	Dir, ImportPath, Export string
	GoFiles                 []string
	Standard, DepOnly       bool
}

// checked is one type-checked package of the scanned modules.
type checked struct {
	dir   string
	files []*ast.File
	info  *types.Info
	pkg   *types.Package
}

// loader type-checks the listed packages from source, each once, serving
// them to one another as imports; the standard library comes from its
// compiled export data, the files `go list -export` names.
type loader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	listed map[string]*listed
	done   map[string]*checked
}

func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, _ string, mode types.ImportMode) (*types.Package, error) {
	if lp := l.listed[path]; lp != nil {
		c, err := l.check(lp)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return l.std.ImportFrom(path, "", mode)
}

func (l *loader) check(lp *listed) (*checked, error) {
	if c := l.done[lp.ImportPath]; c != nil {
		return c, nil
	}
	c := &checked{dir: lp.Dir, info: &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}}
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(lp.ImportPath, l.fset, c.files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkg = pkg
	l.done[lp.ImportPath] = c
	return c, nil
}

// goList lists the packages of the module in dir and every package they
// import, each with its export data file.
func goList(t *testing.T, dir string) []*listed {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listed
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		lp := new(listed)
		if err := dec.Decode(lp); errors.Is(err, io.EOF) {
			return pkgs
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, lp)
	}
}

// load type-checks every package of the module at root and, if present,
// of the benchmark module under it, plus implicitSrc's interfaces, and
// returns the module's root package apart too, if it has one.
func load(t *testing.T, root string) (rootPkg *checked, pkgs []*checked) {
	t.Helper()
	fset := token.NewFileSet()
	export := map[string]string{}
	std, ok := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if export[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(export[path])
	}).(types.ImporterFrom)
	if !ok {
		t.Fatal("the gc importer does not implement types.ImporterFrom")
	}
	l := &loader{fset: fset, std: std, listed: map[string]*listed{}, done: map[string]*checked{}}
	var all []*listed
	for _, dir := range []string{root, filepath.Join(root, "benchmark")} {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err != nil {
			continue
		}
		for _, lp := range goList(t, dir) {
			switch {
			case lp.Standard:
				export[lp.ImportPath] = lp.Export
			case !lp.DepOnly:
				l.listed[lp.ImportPath] = lp
				all = append(all, lp)
			}
		}
	}
	for _, lp := range all {
		c, err := l.check(lp)
		if err != nil {
			t.Fatalf("type-checking %s: %v", lp.ImportPath, err)
		}
		if lp.Dir == root {
			rootPkg = c
		}
		pkgs = append(pkgs, c)
	}
	f, err := parser.ParseFile(fset, "implicit.go", implicitSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	implicit := &checked{files: []*ast.File{f}, info: &types.Info{Defs: map[*ast.Ident]types.Object{}}}
	if implicit.pkg, err = (&types.Config{Importer: l}).Check("implicit", fset, implicit.files, implicit.info); err != nil {
		t.Fatal(err)
	}
	return rootPkg, append(pkgs, implicit)
}

// ruled reports whether the exported-name rule covers the package in dir:
// every package under root/internal but testutilPkg.
func ruled(root, dir string) bool {
	return strings.HasPrefix(dir, filepath.Join(root, "internal")+string(filepath.Separator)) &&
		dir != filepath.Join(root, filepath.FromSlash(testutilPkg))
}

// scan type-checks the module at root and returns the exported functions
// and methods declared in non-test files under root/internal and, sorted,
// the keys of those that nothing calls (see the package doc); and the
// exported fields of the exported structs declared there and, sorted, the
// keys of those that nothing sets (setters).
func scan(t *testing.T, root string) (decls []decl, unused []string, fields []string, unset []string) {
	t.Helper()
	rootPkg, pkgs := load(t, root)
	owner := map[*types.Var]*types.Named{} // exported field -> its struct type
	fieldKey := map[*types.Var]string{}
	for _, c := range pkgs {
		if !ruled(root, c.dir) {
			continue
		}
		for _, f := range c.files {
			for _, n := range f.Decls {
				gd, ok := n.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					tn := c.info.Defs[ts.Name].(*types.TypeName)
					if !ts.Name.IsExported() || tn.IsAlias() {
						continue
					}
					named := tn.Type().(*types.Named)
					st, ok := named.Underlying().(*types.Struct)
					if !ok {
						continue
					}
					for i := range st.NumFields() {
						if v := st.Field(i); v.Exported() && !v.Embedded() {
							owner[v], fieldKey[v] = named, c.pkg.Name()+"."+tn.Name()+"."+v.Name()
							fields = append(fields, fieldKey[v])
						}
					}
				}
			}
		}
	}
	set := setters(pkgs, owner)
	for v, key := range fieldKey {
		if !set[v] {
			unset = append(unset, key)
		}
	}
	slices.Sort(unset)
	called := map[*types.Func]bool{}
	ifaces := map[string][]*types.Interface{} // method name -> the used interfaces that have it
	seen := map[types.Type]bool{}
	var use func(types.Type)
	use = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch x := typ.(type) {
		case *types.Signature:
			for _, tup := range []*types.Tuple{x.Params(), x.Results()} {
				for i := range tup.Len() {
					use(tup.At(i).Type())
				}
			}
		case *types.Pointer:
			use(x.Elem())
		case *types.Slice:
			use(x.Elem())
		case *types.Array:
			use(x.Elem())
		case *types.Chan:
			use(x.Elem())
		case *types.Map:
			use(x.Key())
			use(x.Elem())
		}
		if it, ok := typ.Underlying().(*types.Interface); ok {
			for i := range it.NumMethods() {
				name := it.Method(i).Name()
				ifaces[name] = append(ifaces[name], it)
			}
		}
	}
	for _, c := range pkgs {
		for _, obj := range c.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				called[fn.Origin()] = true
			}
			use(obj.Type())
		}
		for _, obj := range c.info.Defs {
			if obj != nil {
				use(obj.Type())
			}
		}
		for _, tv := range c.info.Types {
			use(tv.Type)
		}
		if !ruled(root, c.dir) {
			continue
		}
		for _, f := range c.files {
			for _, n := range f.Decls {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				d := decl{key: c.pkg.Name() + "." + fn.Name(), fn: fn}
				if recv := fn.Signature().Recv(); recv != nil {
					d.key = c.pkg.Name() + "." + recvNamed(recv.Type()).Obj().Name() + "." + fn.Name()
				}
				decls = append(decls, d)
			}
		}
	}
	if len(decls) == 0 {
		t.Fatalf("no exported function or method found under %s", filepath.Join(root, "internal"))
	}
	if rootPkg != nil { // the public API: methods of the types the root package re-exports
		scope := rootPkg.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					for i := range named.NumMethods() {
						called[named.Method(i)] = true
					}
				}
			}
		}
	}
	for _, d := range decls {
		if !called[d.fn] && !satisfies(d.fn, ifaces[d.fn.Name()]) {
			unused = append(unused, d.key)
		}
	}
	slices.Sort(unused)
	return decls, unused, fields, unset
}

// setters returns the fields of owner that some file of pkgs sets: names
// as a key of a composite literal (or fills positionally), or assigns to
// (=, op=, ++ or --) through a selector resolved to the field by type,
// outside the methods of the field's own struct type.
func setters(pkgs []*checked, owner map[*types.Var]*types.Named) map[*types.Var]bool {
	set := map[*types.Var]bool{}
	field := func(c *checked, e ast.Expr) *types.Var {
		if se, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if v, ok := c.info.Uses[se.Sel].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
		}
		return nil
	}
	for _, c := range pkgs {
		for _, f := range c.files {
			for _, d := range f.Decls {
				var recv *types.Named
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = recvNamed(c.info.Defs[fd.Name].(*types.Func).Signature().Recv().Type())
				}
				assigned := func(v *types.Var) {
					if v != nil && owner[v] != nil && (recv == nil || owner[v].Origin() != recv.Origin()) {
						set[v] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							assigned(field(c, lhs))
						}
					case *ast.IncDecStmt:
						assigned(field(c, n.X))
					case *ast.CompositeLit:
						typ := c.info.Types[n].Type
						if p, ok := typ.(*types.Pointer); ok {
							typ = p.Elem()
						}
						st, ok := typ.Underlying().(*types.Struct)
						if !ok {
							break
						}
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if v, ok := c.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
									set[v.Origin()] = true
								}
							} else {
								set[st.Field(i).Origin()] = true
							}
						}
					}
					return true
				})
			}
		}
	}
	return set
}

// satisfies reports whether fn is a method whose receiver type, or a
// pointer to it, implements one of ifaces (each has a method of fn's name).
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Signature().Recv()
	if recv == nil {
		return false
	}
	named := recvNamed(recv.Type())
	if named.TypeParams().Len() > 0 {
		return false
	}
	return slices.ContainsFunc(ifaces, func(it *types.Interface) bool {
		return types.Implements(named, it) || types.Implements(types.NewPointer(named), it)
	})
}

// recvNamed returns a method receiver's named type, without its pointer.
func recvNamed(typ types.Type) *types.Named {
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return types.Unalias(typ).(*types.Named)
}
