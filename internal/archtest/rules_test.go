package archtest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
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
	// One scheduler: balancing policy (LPT assignment, the retry queue,
	// backoff, retry budgets) lives in the unit scheduler of internal/validate;
	// internal/dist is an executor under it. Importing the workload
	// package there again is the first step of growing a second scheduler.
	{"internal/dist", "internal/workload", "scheduling policy belongs to internal/validate"},
	// Incremental detection without units: the detector enumerates through
	// the delta (pinned touched nodes and inserted edges); work units,
	// pivots and their radius balls belong to the batch engines.
	{"internal/incremental", "internal/workload", "units belong to the batch engines"},
	// Planning traverses no blocks (with blockViolations): a chunk plan
	// is cut from class sizes and the heavy-node list.
	{"internal/validate", "internal/stats", "planning needs no statistics pass"},
}

// importViolations returns, sorted, "file: imports path" for every
// non-test .go file of a banned-from package under root that imports its
// banned package, resolved against the module path in root's go.mod.
func importViolations(t *testing.T, root string) []string {
	t.Helper()
	modPath := modulePath(t, root)
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

// modulePath returns the module path root's go.mod declares.
func modulePath(t *testing.T, root string) string {
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
	return modPath
}

func TestImportBans(t *testing.T) {
	for _, v := range importViolations(t, repoRoot(t)) {
		t.Error(v)
	}
}

// TestImportBansGuardFires runs the import rule over a module where each
// banned-from package imports its banned package once, in one of its
// files, beside a clean file, a test file that may import it and a package
// outside the bans that does: it must name the three files and only them.
func TestImportBansGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                              "module m\n",
		"internal/dist/coord.go":              "package dist\n\nimport (\n\t\"fmt\"\n\tw \"m/internal/workload\"\n)\n",
		"internal/dist/wire.go":               "package dist\n\nimport \"m/internal/validate\"\n",
		"internal/dist/dist_test.go":          "package dist\n\nimport \"m/internal/workload\"\n",
		"internal/incremental/incremental.go": "package incremental\n\nimport \"m/internal/workload\"\n",
		"internal/validate/plan.go":           "package validate\n\nimport \"m/internal/workload\"\n",
		"internal/validate/estimate.go":       "package validate\n\nimport \"m/internal/stats\"\n",
	})
	want := []string{
		"internal/dist/coord.go: imports m/internal/workload (scheduling policy belongs to internal/validate)",
		"internal/incremental/incremental.go: imports m/internal/workload (units belong to the batch engines)",
		"internal/validate/estimate.go: imports m/internal/stats (planning needs no statistics pass)",
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

// Planning traverses no blocks: a chunk plan is cut from class sizes and
// the heavy-node list, and each unit's star test runs on the slot that
// runs it. A block is traversed by Snapshot.BlockInto,
// Snapshot/Graph.Neighborhood or validate's fillBlock. In internal/validate
// the callers left are disVal's (disval.go: the ship costs and the
// partial-match branch) and the dist halo selection, whose
// DistPlan.FillBlock in dist.go calls fillBlock once.
var (
	blockCall = regexp.MustCompile(`(\.(BlockInto|Neighborhood)|\bfillBlock)\(`)
	haloCall  = regexp.MustCompile(`^\s+fillBlock\(set, p\.b\.topo, `)
)

const (
	planDir  = "internal/validate"
	disValGo = "disval.go"
	haloGo   = "dist.go"
)

// blockViolations returns, sorted, "file:line" of every line of a non-test
// .go file of planDir, outside disValGo and haloGo, that traverses a
// block, and one line if haloGo has other than one such line or no halo
// selection's fillBlock.
func blockViolations(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(root, filepath.FromSlash(planDir)))
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	halo, haloLines := false, 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == disValGo {
			continue
		}
		src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(planDir), name))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			switch {
			case !blockCall.MatchString(line):
			case name == haloGo:
				haloLines++
				halo = halo || haloCall.MatchString(line)
			default:
				bad = append(bad, fmt.Sprintf("%s/%s:%d", planDir, name, i+1))
			}
		}
	}
	if haloLines != 1 || !halo {
		bad = append(bad, fmt.Sprintf("%s/%s: %d lines traverse blocks, want the halo selection's one fillBlock(set, p.b.topo, …)", planDir, haloGo, haloLines))
	}
	slices.Sort(bad)
	return bad
}

func TestPlanningTraversesNoBlocks(t *testing.T) {
	for _, v := range blockViolations(t, repoRoot(t)) {
		t.Errorf("%s: planning traverses no blocks; disVal and the dist halo selection do", v)
	}
}

// TestPlanningTraversesNoBlocksGuardFires runs the block rule over a plan
// that calls Neighborhood and fillBlock, beside disVal and a test, which
// may, and a halo selection with a second traversal: it must name the two
// plan lines and the halo file. A halo file whose one fillBlock is not the
// halo selection's fails too.
func TestPlanningTraversesNoBlocksGuardFires(t *testing.T) {
	halo := "package validate\n\nfunc (p *DistPlan) FillBlock() {\n\tfillBlock(set, p.b.topo, seeds)\n}\n"
	root := writeModule(t, map[string]string{
		"internal/validate/plan.go":      "package validate\n\nfunc plan() {\n\t_ = topo.Neighborhood(v, r)\n\tfillBlock(set, topo, v)\n}\n",
		"internal/validate/disval.go":    "package validate\n\nfunc ship() { topo.BlockInto(set, v, r) }\n",
		"internal/validate/plan_test.go": "package validate\n\nvar _ = g.Neighborhood(v, r)\n",
		"internal/validate/dist.go":      halo + "\nfunc more() { topo.BlockInto(set, v, r) }\n",
	})
	want := []string{
		"internal/validate/dist.go: 2 lines traverse blocks, want the halo selection's one fillBlock(set, p.b.topo, …)",
		"internal/validate/plan.go:4",
		"internal/validate/plan.go:5",
	}
	if got := blockViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the block rule reports\n%q\nwant\n%q", got, want)
	}
	root = writeModule(t, map[string]string{
		"internal/validate/dist.go": "package validate\n\nfunc f() { fillBlock(set, topo, seeds) }\n",
	})
	if got := blockViolations(t, root); len(got) != 1 {
		t.Fatalf("the block rule reports %q over a halo file without the halo selection, want one line", got)
	}
}

// Pivots lower where they run: a pivot's class label, seeds and
// star are lowered once per rule group on a bundle's rule side
// (workload.Pivot.Lower); the functions that read a view (Class, ClassLen,
// Candidates) read those codes. A lookup inside one of them runs once per
// work unit again, and the answer cache that absorbed it (recentSlots)
// stays deleted.
var (
	// viewFunc captures a func line's name and parameters up to the first
	// ')' after the receiver.
	viewFunc      = regexp.MustCompile(`^func (\([^)]*\) )?([^)]*)`)
	nameLookup    = regexp.MustCompile(`(LowerLabel|\.Lookup)\(`)
	recentSlotBan = lineBan{regexp.MustCompile(`\brecentSlots\b`), nil, "names recentSlots: Symbols answers a Lookup by its index alone"}
)

// pivotViolations returns, sorted, recentSlotBan's violations under root
// and "file:line" of every line of a function of a non-test file of
// internal/workload that takes a *graph.Snapshot, from its func line to
// its closing brace, that looks up a name.
func pivotViolations(t *testing.T, root string) []string {
	t.Helper()
	bad := lineViolations(t, root, recentSlotBan)
	walkGo(t, root, func(path, rel string) error {
		if !strings.HasPrefix(rel, "internal/workload/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		view := false
		for i, line := range strings.Split(string(src), "\n") {
			if m := viewFunc.FindStringSubmatch(line); m != nil {
				view = strings.Contains(m[2], "*graph.Snapshot")
			}
			if view && nameLookup.MatchString(line) {
				bad = append(bad, fmt.Sprintf("%s:%d", rel, i+1))
			}
			if strings.HasPrefix(line, "}") {
				view = false
			}
		}
		return nil
	})
	slices.Sort(bad)
	return bad
}

func TestPivotsLowerWhereTheyRun(t *testing.T) {
	for _, v := range pivotViolations(t, repoRoot(t)) {
		t.Errorf("%s: a function that reads a view looks up a name, or recentSlots is back: lower the pivot once (Pivot.Lower) and read its codes", v)
	}
}

// TestPivotsLowerWhereTheyRunGuardFires runs the pivot rule over a
// workload package whose view method and view function look a name up,
// beside Lower, which may, a lookup after a view function's closing brace
// and a test that may: it must name the two lines and a recentSlots
// elsewhere, and only them.
func TestPivotsLowerWhereTheyRunGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/workload/pivot.go": `package workload

func (p *Pivot) Lower(syms *graph.Symbols) { p.code = syms.Lookup(p.label) }

func (p *Pivot) Class(t *graph.Snapshot, i int) []graph.NodeID {
	return t.NodesWith(t.Syms().Lookup(p.label))
}

func count(t *graph.Snapshot) int {
	return len(t.LowerLabel(x))
}

var c = syms.Lookup(y)
`,
		"internal/workload/pivot_test.go": "package workload\n\nfunc f(t *graph.Snapshot) { t.Syms().Lookup(x) }\n",
		"internal/graph/symbols.go":       "package graph\n\nvar recentSlots [4]int\n",
	})
	want := []string{"internal/graph/symbols.go:3: " + recentSlotBan.why, "internal/workload/pivot.go:10", "internal/workload/pivot.go:6"}
	if got := pivotViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the pivot rule reports\n%q\nwant\n%q", got, want)
	}
}

// Inlined snapshot reads: the matcher keeps one search body for frozen
// snapshots and overlay views because these accessors of *graph.Snapshot,
// the patch check included, still inline into it; an accessor change that
// breaks that fails here rather than in the benchmark.
var inlinedReads = []string{"Out", "In", "Label", "OutDegree", "InDegree", "NodesWith", "OutWith", "InWith", "OutWithNbr", "InWithNbr", "AttrPairs"}

// inlineViolations builds root's internal/graph with the compiler's
// optimization report (go build -gcflags=-m) and returns, in
// inlinedReads order, those of the accessors it does not report
// inlinable.
func inlineViolations(t *testing.T, root string) []string {
	t.Helper()
	cmd := exec.Command("go", "build", "-gcflags=-m", "./internal/graph")
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m ./internal/graph in %s: %v\n%s", root, err, out)
	}
	var bad []string
	for _, f := range inlinedReads {
		if !regexp.MustCompile(`(?m)can inline \(\*Snapshot\)\.` + f + `( |$)`).Match(out) {
			bad = append(bad, f)
		}
	}
	return bad
}

func TestInlinedSnapshotReads(t *testing.T) {
	for _, f := range inlineViolations(t, repoRoot(t)) {
		t.Errorf("(*graph.Snapshot).%s is no longer inlinable", f)
	}
}

// TestInlinedSnapshotReadsGuardFires builds a graph package whose
// accessors all inline but In, marked go:noinline, and Label, which is
// missing: the inline rule must name those two only.
func TestInlinedSnapshotReadsGuardFires(t *testing.T) {
	var src strings.Builder
	src.WriteString("package graph\n\ntype Snapshot struct{ n []int }\n")
	for _, f := range inlinedReads {
		switch f {
		case "In":
			src.WriteString("\n//go:noinline\n")
		case "Label":
			continue
		}
		fmt.Fprintf(&src, "\nfunc (s *Snapshot) %s(v int) int { return s.n[v] }\n", f)
	}
	root := writeModule(t, map[string]string{
		"go.mod":                     "module m\n\ngo 1.24\n",
		"internal/graph/snapshot.go": src.String(),
	})
	if got, want := inlineViolations(t, root), []string{"In", "Label"}; !slices.Equal(got, want) {
		t.Fatalf("the inline rule reports %v, want %v", got, want)
	}
}

// Faults come from outside. The engines carry no injector: the chaos
// suites fault a goroutine slot through validate's one seam, wrapSlots,
// which only test files set, and a worker process from the test binary
// the fleet re-executes, which interposes on the worker's pipes. So no
// non-test file assigns the seam, and the one environment variable dist
// reads is EnvWorker: a second is how a fault plan once reached every
// binary that can serve as a worker.
const slotSeam = "wrapSlots"

// faultViolations returns, sorted, "file:line: what" for every assignment
// to validate's slot seam in a non-test .go file under root, and every
// os.Getenv or os.LookupEnv in a non-test file under internal/dist of a
// name other than EnvWorker.
func faultViolations(t *testing.T, root string) []string {
	t.Helper()
	fset := token.NewFileSet()
	var bad []string
	walkGo(t, root, func(path, rel string) error {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		report := func(n ast.Node, what string) {
			bad = append(bad, fmt.Sprintf("%s:%d: %s", rel, fset.Position(n.Pos()).Line, what))
		}
		dist := strings.HasPrefix(rel, "internal/dist/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if slices.ContainsFunc(n.Lhs, func(e ast.Expr) bool { return isName(e, slotSeam) }) {
					report(n, "assigns "+slotSeam)
				}
			case *ast.ValueSpec:
				if len(n.Values) > 0 && slices.ContainsFunc(n.Names, func(id *ast.Ident) bool { return id.Name == slotSeam }) {
					report(n, "initializes "+slotSeam)
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if dist && ok && isName(sel.X, "os") && (sel.Sel.Name == "Getenv" || sel.Sel.Name == "LookupEnv") &&
					(len(n.Args) != 1 || !isName(n.Args[0], "EnvWorker")) {
					report(n, "reads an environment variable other than EnvWorker")
				}
			}
			return true
		})
		return nil
	})
	slices.Sort(bad)
	return bad
}

func TestFaultsComeFromOutside(t *testing.T) {
	for _, v := range faultViolations(t, repoRoot(t)) {
		t.Errorf("%s: faults come from outside — only tests arm the slot seam, and a worker reads no fault plan from its environment", v)
	}
}

// TestFaultsComeFromOutsideGuardFires runs the rule over a module that
// assigns the seam in a non-test file, initializes it in another and reads
// two environment variables under internal/dist other than EnvWorker,
// beside the seam's declaration and use, a test file that sets it, a dist
// test and a command that read what they like: it must name the four
// lines and only them.
func TestFaultsComeFromOutsideGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                           "module m\n",
		"internal/validate/repval.go":      "package validate\n\nvar wrapSlots func(Executor) Executor\n\nfunc run() {\n\tif wrapSlots != nil {\n\t\texec = wrapSlots(exec)\n\t}\n}\n",
		"internal/validate/chaos.go":       "package validate\n\nfunc init() {\n\twrapSlots = faulty\n}\n",
		"internal/validate/seam.go":        "package validate\n\nvar wrapSlots = faulty\n",
		"internal/validate/export_test.go": "package validate\n\nfunc arm() { wrapSlots = faulty }\n",
		"internal/dist/worker.go":          "package dist\n\nimport \"os\"\n\nfunc f() {\n\t_ = os.Getenv(EnvWorker)\n\t_ = os.Getenv(EnvFault)\n\t_, _ = os.LookupEnv(\"GFD_DIST_FAULT\")\n}\n",
		"internal/dist/dist_test.go":       "package dist\n\nimport \"os\"\n\nvar _ = os.Getenv(\"HOME\")\n",
		"cmd/tool/main.go":                 "package main\n\nimport \"os\"\n\nvar home = os.Getenv(\"HOME\")\n",
	})
	want := []string{
		"internal/dist/worker.go:7: reads an environment variable other than EnvWorker",
		"internal/dist/worker.go:8: reads an environment variable other than EnvWorker",
		"internal/validate/chaos.go:4: assigns wrapSlots",
		"internal/validate/seam.go:3: initializes wrapSlots",
	}
	if got := faultViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the fault rule reports %v, want %v", got, want)
	}
}

// Shared test helpers stay in tests. The helpers that the tests of several
// packages share live in one package, testutil, which the exported-name
// rule leaves out, because only tests call it. This rule holds it instead:
// no non-test file imports it, so no binary links it, and each of its
// exported functions is called by some test file.
const testutilPkg = "internal/testutil"

// testutilViolations returns, sorted, "file: imports testutil" for every
// non-test .go file under root outside testutilPkg that imports it, and
// "file:line: Name is called by no test" for every exported function
// testutilPkg declares that no _test.go file under root calls.
func testutilViolations(t *testing.T, root string) []string {
	t.Helper()
	path := modulePath(t, root) + "/" + testutilPkg
	fset := token.NewFileSet()
	var bad []string
	declared := map[string]string{} // exported function -> "file:line"
	called := map[string]bool{}
	err := filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && file != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(file, ".go"):
			return nil
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		test := strings.HasSuffix(rel, "_test.go")
		if !test && strings.HasPrefix(rel, testutilPkg+"/") {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					declared[fd.Name.Name] = fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
				}
			}
			return nil
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != path {
				continue
			}
			if !test {
				bad = append(bad, rel+": imports "+testutilPkg)
				continue
			}
			name := "testutil"
			if imp.Name != nil {
				name = imp.Name.Name
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == name {
						called[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, at := range declared {
		if !called[name] {
			bad = append(bad, at+": "+name+" is called by no test")
		}
	}
	slices.Sort(bad)
	return bad
}

func TestTestutilStaysInTests(t *testing.T) {
	for _, v := range testutilViolations(t, repoRoot(t)) {
		t.Errorf("%s: shared test helpers stay in tests — no binary links testutil, and each helper has a test that calls it", v)
	}
}

// TestTestutilStaysInTestsGuardFires runs the rule over a module where a
// package and a command import testutil from non-test files and testutil
// declares a helper no test calls, beside one a test calls by the package
// name, one a test calls through an import alias, and an unexported one:
// it must name the two imports and the dead helper, and only them.
func TestTestutilStaysInTestsGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"go.mod":                        "module m\n",
		"internal/testutil/testutil.go": "package testutil\n\nfunc Settled() {}\n\nfunc Aliased() {}\n\nfunc Dead() {}\n\nfunc helper() {}\n",
		"internal/dist/dist.go":         "package dist\n\nimport \"m/internal/testutil\"\n\nvar _ = testutil.Dead\n",
		"internal/dist/dist_test.go":    "package dist\n\nimport \"m/internal/testutil\"\n\nfunc f() { testutil.Settled() }\n",
		"internal/validate/v_test.go":   "package validate_test\n\nimport tu \"m/internal/testutil\"\n\nfunc f() { tu.Aliased() }\n",
		"cmd/tool/main.go":              "package main\n\nimport _ \"m/internal/testutil\"\n",
	})
	want := []string{
		"cmd/tool/main.go: imports internal/testutil",
		"internal/dist/dist.go: imports internal/testutil",
		"internal/testutil/testutil.go:7: Dead is called by no test",
	}
	if got := testutilViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the testutil rule reports %v, want %v", got, want)
	}
}
