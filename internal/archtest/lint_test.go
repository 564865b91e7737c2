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
	"strings"
	"testing"
)

// lineBan is a pattern that no line of a non-test .go file under the
// module may match: in the files whose slash-separated path starts with
// one of in, or in every file when in is nil.
type lineBan struct {
	re  *regexp.Regexp
	in  []string
	why string
}

// lineViolations returns, sorted, "file:line: why" for every line of a
// non-test .go file under root that one of bans covers and matches.
func lineViolations(t *testing.T, root string, bans ...lineBan) []string {
	t.Helper()
	var bad []string
	walkGo(t, root, func(path, rel string) error {
		var src []byte
		for _, ban := range bans {
			if ban.in != nil && !slices.ContainsFunc(ban.in, func(p string) bool { return strings.HasPrefix(rel, p) }) {
				continue
			}
			if src == nil {
				var err error
				if src, err = os.ReadFile(path); err != nil {
					return err
				}
			}
			for i, line := range strings.Split(string(src), "\n") {
				if ban.re.MatchString(line) {
					bad = append(bad, fmt.Sprintf("%s:%d: %s", rel, i+1, ban.why))
				}
			}
		}
		return nil
	})
	slices.Sort(bad)
	return bad
}

// Overlay owns its delta: an overlay write patches its view and bumps the
// graph's version. Writing through to the graph's maps would thaw a
// store-adopted graph (O(|V|+|E|)) on the first update of every session and
// dist worker, and compaction flattens the view instead.
var overlayDeltaBan = lineBan{
	regexp.MustCompile(`o\.g\.(AddNode|AddEdge|SetAttr)\(`),
	[]string{"internal/graph/overlay.go"},
	"the overlay calls a *Graph mutator: it must own its delta",
}

func TestOverlayOwnsItsDelta(t *testing.T) {
	for _, v := range lineViolations(t, repoRoot(t), overlayDeltaBan) {
		t.Error(v)
	}
}

// TestOverlayOwnsItsDeltaGuardFires runs the delta rule over an overlay
// that writes the graph's maps twice, beside a graph file and an overlay
// test that may: it must name the two lines and only them.
func TestOverlayOwnsItsDeltaGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/overlay.go":      "package graph\n\nfunc (o *Overlay) AddEdge() {\n\to.g.AddEdge(a, b, l)\n\to.patch()\n\to.g.SetAttr(a, k, v)\n}\n",
		"internal/graph/graph.go":        "package graph\n\nfunc (o *Overlay) f() { o.g.AddNode(l, nil) }\n",
		"internal/graph/overlay_test.go": "package graph\n\nfunc f() { o.g.AddNode(l, nil) }\n",
	})
	why := ": " + overlayDeltaBan.why
	want := []string{"internal/graph/overlay.go:4" + why, "internal/graph/overlay.go:6" + why}
	if got := lineViolations(t, root, overlayDeltaBan); !slices.Equal(got, want) {
		t.Fatalf("the delta rule reports\n%q\nwant\n%q", got, want)
	}
}

// One live overlay per graph: the graph owns it, graph.NewOverlay returns
// it and Overlay.Settle compacts it. A session or detector that keeps an
// overlay of its own, or hands one to another holder, brings back the
// hand-off in which writers desync each other into a re-freeze per batch.
// Each of adopters, subdirectories included, adopts the live overlay at
// one site at most.
var (
	liveOverlayBan = lineBan{regexp.MustCompile(`OnCompact|NewOnOverlay`), nil, "mentions OnCompact or NewOnOverlay: the graph owns its live overlay"}
	adoption       = regexp.MustCompile(`graph\.NewOverlay\(`)
	adopters       = []string{"internal/session", "internal/incremental"}
)

// liveOverlayViolations returns, sorted, liveOverlayBan's violations under
// root and one line for each adopter whose non-test files call
// graph.NewOverlay more than once.
func liveOverlayViolations(t *testing.T, root string) []string {
	t.Helper()
	bad := lineViolations(t, root, liveOverlayBan)
	sites := map[string]int{}
	walkGo(t, root, func(path, rel string) error {
		for _, pkg := range adopters {
			if !strings.HasPrefix(rel, pkg+"/") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sites[pkg] += len(adoption.FindAllIndex(src, -1))
		}
		return nil
	})
	for _, pkg := range adopters {
		if n := sites[pkg]; n > 1 {
			bad = append(bad, fmt.Sprintf("%s: calls graph.NewOverlay( at %d sites: adopt the live overlay at one", pkg, n))
		}
	}
	slices.Sort(bad)
	return bad
}

func TestOneLiveOverlayPerGraph(t *testing.T) {
	for _, v := range liveOverlayViolations(t, repoRoot(t)) {
		t.Error(v)
	}
}

// TestOneLiveOverlayPerGraphGuardFires runs the overlay-ownership rule over
// a module that names OnCompact, and adopts the live overlay at two sites
// in internal/session (one in a subdirectory) and at one in
// internal/incremental, beside test files that may do either: it must
// name the OnCompact line and internal/session only.
func TestOneLiveOverlayPerGraphGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/overlay.go":            "package graph\n\nfunc (o *Overlay) OnCompact(f func()) {}\n",
		"internal/session/session.go":          "package session\n\nvar ov = graph.NewOverlay(g)\n",
		"internal/session/apply/apply.go":      "package apply\n\nfunc f() { _ = graph.NewOverlay(g) }\n",
		"internal/session/session_test.go":     "package session\n\nvar _ = graph.NewOverlay(g)\n",
		"internal/incremental/incremental.go":  "package incremental\n\nvar ov = graph.NewOverlay(g)\n",
		"internal/incremental/overlay_test.go": "package incremental\n\nvar _, _ = graph.NewOverlay(g), NewOnOverlay(ov)\n",
	})
	want := []string{
		"internal/graph/overlay.go:3: " + liveOverlayBan.why,
		"internal/session: calls graph.NewOverlay( at 2 sites: adopt the live overlay at one",
	}
	if got := liveOverlayViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the overlay-ownership rule reports\n%q\nwant\n%q", got, want)
	}
}

// One snapshot builder: buildSnapshot is the one function that turns a
// graph's maps into a snapshot — serial interning, then a parallel
// fill-and-sort pass whose output does not depend on the worker count. A
// second builder, a serial fallback or a fault site inside the build
// brings back a path the differential tests and the benchmark no longer
// cover.
var builderBan = lineBan{
	regexp.MustCompile(`buildSnapshotParallel|collectDistinct|FreezeFallbacks|SetFreezeInjector|FreezeShard`), nil,
	"names a retired snapshot builder, its fallback or its fault site: keep one buildSnapshot",
}

func TestOneSnapshotBuilder(t *testing.T) {
	for _, v := range lineViolations(t, repoRoot(t), builderBan) {
		t.Error(v)
	}
}

// TestOneSnapshotBuilderGuardFires runs the builder rule over a module
// that names a retired builder and, outside internal/, a fault site,
// beside a test that may: it must name the two lines and only them.
func TestOneSnapshotBuilderGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/freeze.go":      "package graph\n\nfunc buildSnapshot() {}\n\nfunc collectDistinct() {}\n",
		"cmd/tool/main.go":              "package main\n\nfunc main() { graph.SetFreezeInjector(nil) }\n",
		"internal/graph/freeze_test.go": "package graph\n\nvar _ = buildSnapshotParallel\n",
	})
	why := ": " + builderBan.why
	want := []string{"cmd/tool/main.go:3" + why, "internal/graph/freeze.go:5" + why}
	if got := lineViolations(t, root, builderBan); !slices.Equal(got, want) {
		t.Fatalf("the builder rule reports\n%q\nwant\n%q", got, want)
	}
}

// One read type: every engine, planner and literal program reads one
// concrete type, *graph.Snapshot — frozen, or an overlay's patched view,
// which Patched tells apart. graph.Topology only resolves to it (View),
// and topologyFile declares it. A wider interface, a second attribute
// contract or a type switch on the view brings back the layers the hot
// loops had to read around.
var (
	readBans = []lineBan{
		{regexp.MustCompile(`\bAttrSource\b`), nil, "mentions AttrSource: literal programs read *graph.Snapshot"},
		{regexp.MustCompile(`\bAttrIndex\b`), nil, "names AttrIndex: the attribute index is a private part of the overlay's patch"},
		{regexp.MustCompile(`\.\(\*graph\.(Overlay|Snapshot)\)|case \*graph\.(Overlay|Snapshot)\b`), nil, "type-asserts a view to *graph.Overlay or *graph.Snapshot: ask Patched()"},
	}
	topologyFile = "internal/graph/topology.go"
)

// readViolations returns, sorted, readBans' violations under root and one
// line if graph.Topology, in topologyFile, does not have exactly one
// member (a method or an embedded interface).
func readViolations(t *testing.T, root string) []string {
	t.Helper()
	bad := lineViolations(t, root, readBans...)
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(root, filepath.FromSlash(topologyFile)), nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	members := 0
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Topology" {
			if it, ok := ts.Type.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					members += max(len(m.Names), 1)
				}
			}
		}
		return true
	})
	if members != 1 {
		bad = append(bad, fmt.Sprintf("%s: graph.Topology has %d members: it only resolves to *Snapshot (View)", topologyFile, members))
	}
	slices.Sort(bad)
	return bad
}

func TestOneReadType(t *testing.T) {
	for _, v := range readViolations(t, repoRoot(t)) {
		t.Error(v)
	}
}

// TestOneReadTypeGuardFires runs the read-type rule over a module that
// breaks each of its clauses once — AttrSource, AttrIndex, a type
// assertion, a type-switch case and a Topology with a second member —
// beside a word that only contains AttrSource and a test that may
// assert: it must name the five violations and only them. A Topology
// with no member, or none at all, fails too.
func TestOneReadTypeGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/topology.go":     "package graph\n\ntype Topology interface {\n\t// View resolves.\n\tView() *Snapshot\n\tOut(v NodeID) []NodeID\n}\n",
		"internal/core/literal.go":       "package core\n\ntype AttrSource interface{}\n\nvar MyAttrSources int\n",
		"internal/graph/overlay.go":      "package graph\n\nvar x AttrIndex\n",
		"internal/match/matcher.go":      "package match\n\nfunc f(t graph.Topology) {\n\t_ = t.(*graph.Overlay)\n\tswitch t.(type) {\n\tcase *graph.Snapshot:\n\t}\n}\n",
		"internal/match/matcher_test.go": "package match\n\nvar _ = t.(*graph.Snapshot)\n",
	})
	want := []string{
		"internal/core/literal.go:3: " + readBans[0].why,
		"internal/graph/overlay.go:3: " + readBans[1].why,
		"internal/graph/topology.go: graph.Topology has 2 members: it only resolves to *Snapshot (View)",
		"internal/match/matcher.go:4: " + readBans[2].why,
		"internal/match/matcher.go:6: " + readBans[2].why,
	}
	if got := readViolations(t, root); !slices.Equal(got, want) {
		t.Fatalf("the read-type rule reports\n%q\nwant\n%q", got, want)
	}
	for _, body := range []string{"type Topology interface{}\n", "type View interface{ View() *Snapshot }\n"} {
		root := writeModule(t, map[string]string{"internal/graph/topology.go": "package graph\n\n" + body})
		if got := readViolations(t, root); len(got) != 1 {
			t.Fatalf("the read-type rule reports %q over %q, want one line", got, body)
		}
	}
}

// Sealed graphs never thaw: a graph is building while its maps hold the
// truth, and sealed once a snapshot is its read source (adopted, or
// written by an overlay); a write to a sealed graph goes through its live
// overlay. Sealing is one-way: a thaw back onto the maps, a build-once
// marker beside Freeze's lock, a freeze worker knob or an induced-subgraph
// copy brings back a second representation and the paths that kept the
// two in step.
var thawBan = lineBan{
	regexp.MustCompile(`ensureThawed|thawFromSnapshot|thawMu|snapBuilding|SetFreezeWorkers|InducedSubgraph`), nil,
	"names a thaw, Freeze's in-flight build marker, the freeze worker knob or InducedSubgraph: sealed graphs never thaw",
}

func TestSealedGraphsNeverThaw(t *testing.T) {
	for _, v := range lineViolations(t, repoRoot(t), thawBan) {
		t.Error(v)
	}
}

// TestSealedGraphsNeverThawGuardFires runs the sealing rule over a module
// with a thaw, a worker knob in a comment and an induced-subgraph copy,
// beside a test that may name a thaw: it must name the three lines and
// only them.
func TestSealedGraphsNeverThawGuardFires(t *testing.T) {
	root := writeModule(t, map[string]string{
		"internal/graph/graph.go":      "package graph\n\nfunc (g *Graph) ensureThawed() {}\n\n// SetFreezeWorkers pins the pool.\nvar n int\n",
		"internal/fragment/induce.go":  "package fragment\n\nvar _ = g.InducedSubgraph(nodes)\n",
		"internal/graph/graph_test.go": "package graph\n\nvar _ = thawMu\n",
	})
	why := ": " + thawBan.why
	want := []string{"internal/fragment/induce.go:3" + why, "internal/graph/graph.go:3" + why, "internal/graph/graph.go:5" + why}
	if got := lineViolations(t, root, thawBan); !slices.Equal(got, want) {
		t.Fatalf("the sealing rule reports\n%q\nwant\n%q", got, want)
	}
}
