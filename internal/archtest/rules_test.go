package archtest

import (
	"fmt"
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
