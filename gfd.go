// Package gfd is a Go implementation of graph functional dependencies
// (GFDs) as introduced by Fan, Wu & Xu, "Functional Dependencies for
// Graphs" (SIGMOD 2016).
//
// A GFD ϕ = (Q[x̄], X → Y) combines a topological constraint — a graph
// pattern Q matched by subgraph isomorphism — with an attribute dependency
// X → Y whose literals are x.A = c (constant, as in CFDs) or x.A = y.B
// (variable, as in FDs).
//
// # The prepared-session lifecycle
//
// Detection follows the prepared-statement idiom: build a graph, open a
// Session on it, Prepare a rule set once, then Detect — or pull
// violations lazily from Violations — any number of times:
//
//	sess, err := gfd.NewSession(g)
//	prep, err := sess.Prepare(set)
//	res, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineReplicated, N: 16})
//	for v, err := range prep.Violations(ctx, gfd.Options{}) {
//		if err != nil { ... }
//		... // break stops detection mid-enumeration, promptly and leak-free
//	}
//
// Prepare freezes the graph into its compiled CSR Snapshot and lowers
// every rule (pattern labels and X → Y literals) onto the frozen symbol
// table; Detect dispatches on Options.Engine to the paper's engines —
// detVio (EngineSequential), repVal (EngineReplicated, Theorem 10),
// disVal (EngineFragmented, Theorem 11) — or the Exp-5 baselines
// (EngineGCFD, EngineBigDansing), all running from the same prepared
// artifacts. Freeze is paid once per graph version, and workload
// reduction, grouping and rule lowering once per (rule set, symbol table),
// across every round; mutating the graph directly re-prepares
// automatically, exactly once per new version. Small mutations routed
// through Session.Apply (or an incremental detector) skip even that: they
// fold into the graph's one live delta Overlay, which the next Detect runs
// against, and the batch whose accumulated delta outgrows the base
// flattens the overlay's view into a fresh snapshot (compaction) and
// starts the next live overlay.
// Violations runs the same engines as one fused, pull-based pipeline —
// match enumeration → compiled literal check → emission into one bounded
// channel (Options.StreamBuffer per slot), whose full buffer blocks the
// producers instead of a global emission lock — so the first violation
// surfaces long before the run finishes and memory stays bounded by the
// buffer, not the match set. Breaking out of the range (or cancelling ctx) stops candidate
// enumeration mid-class. Detect is a thin wrapper over the same pipeline
// that sorts what it collects, and every engine honors context cancellation.
//
// The package also provides:
//
//   - the property-graph model and a text format (NewGraph, ReadGraph);
//   - pattern construction and the GFD rule language (NewPattern, NewGFD,
//     ParseRules);
//   - the classical static analyses: Satisfiable and Implies, plus the
//     implication-based rule-set Reduce;
//   - workload tooling: Partition for fragmenting graphs, MineGFDs for
//     generating rules from frequent graph features, and the generators
//     and noise injection used by the reproduction benchmarks;
//   - maintenance extensions: incremental detection (Session.Incremental
//     / NewIncremental) and repair suggestions (SuggestRepairs);
//   - failure semantics: when a worker dies or a unit misses its deadline,
//     the parallel engines retry the unit on the next free slot (one retry
//     queue, per-unit backoff) and report partial results (ErrPartial,
//     Result.Completeness) once its budget is spent. The package injects
//     no faults: its chaos suites fault the slots from outside.
//
// See README.md for a quickstart and its "Layout" section for the system
// inventory.
package gfd

import (
	"context"
	"io"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/dist"
	"gfd/internal/fragment"
	"gfd/internal/gen"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/pattern"
	"gfd/internal/reason"
	"gfd/internal/repair"
	"gfd/internal/session"
	"gfd/internal/store"
	"gfd/internal/validate"
)

// Core data-model types, re-exported for library users.
type (
	// Graph is a directed property graph G = (V, E, L, F_A).
	Graph = graph.Graph
	// NodeID identifies a node of a Graph.
	NodeID = graph.NodeID
	// Attrs is a node's attribute tuple.
	Attrs = graph.Attrs
	// Edge is a directed labeled edge.
	Edge = graph.Edge
	// Snapshot is the compiled, immutable CSR view of a Graph produced by
	// Graph.Freeze: interned labels, flat sorted adjacency, per-label
	// candidate ranges. Matching and validation hot paths run against it;
	// mutate the Graph, then Freeze again for a fresh view.
	Snapshot = graph.Snapshot
	// Topology is what resolves to the compiled view the engines run
	// against (View): a *Snapshot, or an *Overlay through its patched
	// view. Every read goes through that one *Snapshot.
	Topology = graph.Topology
	// Overlay applies AddNode/AddEdge/SetAttr updates to a base Snapshot
	// and serves reads through its embedded patched view, so small
	// mutations stop costing a full re-freeze. A graph has one live
	// overlay, which Session.Apply and every incremental detector of the
	// graph write through. It owns the delta: its first write seals the
	// graph, which then reads through the view, and a direct write to a
	// sealed graph goes through the overlay too.
	Overlay = graph.Overlay

	// Pattern is a graph pattern Q[x̄].
	Pattern = pattern.Pattern
	// Var is a pattern variable.
	Var = pattern.Var

	// Literal is an equality atom of a dependency.
	Literal = core.Literal
	// GFD is a graph functional dependency (Q[x̄], X → Y).
	GFD = core.GFD
	// Set is a named collection Σ of GFDs.
	Set = core.Set
	// Match is an instantiation h(x̄) of a pattern in a graph.
	Match = core.Match

	// Violation is one inconsistency: a match violating some rule.
	Violation = validate.Violation
	// Report is a violation set Vio(Σ, G). Detect sorts it by rule name,
	// then by node IDs as integers (node 9 before node 10).
	Report = validate.Report
	// Options configures detection: the engine to run (Options.Engine)
	// and the parallel engines' knobs.
	Options = validate.Options
	// Result carries violations plus engine instrumentation.
	Result = validate.Result
	// Engine selects the detection algorithm Prepared.Detect runs.
	Engine = validate.Engine
	// Retry is the per-unit retry budget (Options.Retry) the parallel
	// engines apply when a worker dies or a unit misses its deadline; the
	// backoff before each retry is fixed and per unit.
	Retry = validate.Retry
	// Completeness is the execution census of a detection run under the
	// fault-tolerant scheduler (Result.Completeness): units attempted,
	// succeeded, failed, retries, worker deaths.
	Completeness = validate.Completeness
	// PartialError is the error of a partial run: the failed units with
	// their last errors. errors.Is(err, ErrPartial) matches it.
	PartialError = validate.PartialError
	// UnitFailure is one abandoned work unit inside a PartialError.
	UnitFailure = validate.UnitFailure
	// DistOptions configures EngineDistributed (Options.Dist): the shard
	// manifest to execute over, the worker spawn command, and the
	// process-supervision knobs (heartbeat, handshake timeout, respawn
	// budget).
	DistOptions = validate.DistOptions
	// WorkerError is a recovered worker panic: worker id, unit id, panic
	// value, and the goroutine stack at recovery.
	WorkerError = cluster.WorkerError

	// Session owns a graph and its compiled execution caches; open one
	// with NewSession, then Prepare rule sets against it.
	Session = session.Session
	// Prepared is a rule set compiled against a session's graph: Detect
	// and the pull-based Violations iterator run any engine from the
	// prepared artifacts.
	Prepared = session.Prepared

	// Fragmentation is an n-way partition of a graph across workers.
	Fragmentation = fragment.Fragmentation

	// Conflict explains an unsatisfiable rule set.
	Conflict = reason.Conflict
)

// Wildcard is the pattern label '_' matching any node or edge label.
const Wildcard = pattern.Wildcard

// Engine values for Options.Engine: the paper's three detection
// algorithms plus the two Exp-5 baselines. EngineAuto (the zero value)
// resolves to EngineReplicated.
const (
	EngineAuto       = validate.EngineAuto
	EngineSequential = validate.EngineSequential
	EngineReplicated = validate.EngineReplicated
	EngineFragmented = validate.EngineFragmented
	EngineGCFD       = validate.EngineGCFD
	EngineBigDansing = validate.EngineBigDansing
	// EngineDistributed runs detection as real worker processes over
	// persisted shards (Options.Dist names the manifest). Any binary
	// embedding this package that may act as the spawn target must call
	// dist.MaybeWorker first thing in main.
	EngineDistributed = validate.EngineDistributed
)

// Failure-semantics errors (see README "Failure semantics"): ErrPartial
// marks a Detect result whose violation set may be incomplete after retry
// budgets exhausted (the concrete error is a *PartialError listing the
// failed units; Result.Completeness carries the census); ErrNilGraph is
// NewSession's typed rejection of a nil graph.
var (
	ErrPartial  = validate.ErrPartial
	ErrNilGraph = session.ErrNilGraph
)

// MaybeWorker turns the current process into an EngineDistributed worker
// when it was spawned as one (recognized by environment, not flags), never
// returning in that case. Call it first thing in main of any binary that
// may serve as the distributed engine's spawn target.
func MaybeWorker() { dist.MaybeWorker() }

// WriteShards persists g's frozen snapshot as n per-fragment shards plus a
// shard manifest under dir (files <prefix>.<i>.gfds, <prefix>.manifest),
// partitioned by strategy name ("hash" or "range"). The returned manifest
// path is what Options.Dist.ManifestPath takes.
func WriteShards(g *Graph, n int, strategy, dir, prefix string) (string, error) {
	s, err := fragment.ParseStrategy(strategy)
	if err != nil {
		return "", err
	}
	return dist.WriteShards(g.Freeze(), n, s, dir, prefix)
}

// NewSession opens a prepared session on g — the entry point of the
// build → NewSession → Prepare → Detect/Violations lifecycle. The graph
// stays owned by the caller; the session pays freeze and rule-lowering
// costs once per graph version and rule set. A nil graph returns
// ErrNilGraph (a typed error, not a panic — servers can reject the bad
// request and keep running).
func NewSession(g *Graph) (*Session, error) { return session.New(g) }

// NewGraph returns an empty graph with capacity hints.
func NewGraph(nodeHint, edgeHint int) *Graph { return graph.New(nodeHint, edgeHint) }

// ReadGraph parses the line-oriented graph text format.
func ReadGraph(r io.Reader) (*Graph, map[string]NodeID, error) { return graph.Read(r) }

// WriteGraph serializes a graph in the text format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// LoadedSnapshot is an open persisted snapshot (.gfds file): the decoded
// Snapshot plus the read-only memory mapping backing its arrays. Keep it
// alive as long as anything derived from the snapshot is in use, then
// Close it — unless the graph migrated off the mapping first (any
// mutation, including through Session.Apply, does).
type LoadedSnapshot = store.Loaded

// Persistence errors: every load failure of a .gfds file wraps one of
// these (branch with errors.Is). ErrSnapshotCorrupt covers structural
// damage — truncation, checksum mismatch, a lying section table, invalid
// graph invariants; ErrSnapshotVersion covers files written by a format
// revision (or byte order) this build cannot read.
var (
	ErrSnapshotCorrupt = store.ErrCorrupt
	ErrSnapshotVersion = store.ErrVersion
)

// SaveSnapshot persists g's frozen snapshot to path in the versioned
// binary format (.gfds), atomically and durably (fsync before rename).
// The freeze is cached per graph version, so saving an already-frozen
// graph writes without rebuilding anything. See docs/SNAPSHOT_FORMAT.md
// for the format.
func SaveSnapshot(ctx context.Context, g *Graph, path string) error {
	return store.Save(ctx, g.Freeze(), path)
}

// OpenSnapshot maps a saved snapshot read-only and opens a Session over
// it. The cold path is Open → Prepare → Detect with zero snapshot builds:
// the session's graph is sealed over the mapping, so it is never rebuilt
// and its CSR arrays are never copied. Writes, through Session.Apply or
// directly, patch the graph's live overlay over the mapped arrays, and
// the compaction that retires that overlay flattens it onto the heap.
// The returned LoadedSnapshot owns the mapping; close it when the session
// and the graph are done (Graph.Clone makes a heap copy that outlives it).
func OpenSnapshot(ctx context.Context, path string) (*Session, *LoadedSnapshot, error) {
	l, err := store.Open(ctx, path)
	if err != nil {
		return nil, nil, err
	}
	sess, err := session.New(l.Snapshot().Graph())
	if err != nil {
		l.Close()
		return nil, nil, err
	}
	return sess, l, nil
}

// NewPattern returns an empty graph pattern.
func NewPattern() *Pattern { return pattern.New() }

// Const builds the constant literal x.A = c.
func Const(x Var, a, c string) Literal { return core.Const(x, a, c) }

// VarEq builds the variable literal x.A = y.B.
func VarEq(x Var, a string, y Var, b string) Literal { return core.VarEq(x, a, y, b) }

// NewGFD constructs and validates a GFD.
func NewGFD(name string, q *Pattern, x, y []Literal) (*GFD, error) {
	return core.New(name, q, x, y)
}

// MustGFD is NewGFD that panics on error.
func MustGFD(name string, q *Pattern, x, y []Literal) *GFD {
	return core.MustNew(name, q, x, y)
}

// NewSet builds a rule set from rules with unique names.
func NewSet(rules ...*GFD) (*Set, error) { return core.NewSet(rules...) }

// MustSet is NewSet that panics on error.
func MustSet(rules ...*GFD) *Set { return core.MustNewSet(rules...) }

// ParseRules reads a GFD rule file.
func ParseRules(r io.Reader) (*Set, error) { return core.ParseRules(r) }

// WriteRules serializes a rule set in the rule-file format.
func WriteRules(w io.Writer, s *Set) error { return core.WriteRules(w, s) }

// FromFD encodes a relational FD R(lhs → rhs) as a GFD (Example 5, ϕ4).
func FromFD(name, relation string, lhs, rhs []string) *GFD {
	return core.FromFD(name, relation, lhs, rhs)
}

// CFDCondition is a fixed attribute binding of a CFD pattern tuple.
type CFDCondition = core.CFDCondition

// FromCFD encodes a two-tuple CFD as a GFD (Example 5, ϕ4').
func FromCFD(name, relation string, conds []CFDCondition, lhs, rhs []string) *GFD {
	return core.FromCFD(name, relation, conds, lhs, rhs)
}

// FromConstantCFD encodes a single-tuple constant CFD (Example 5, ϕ4”).
func FromConstantCFD(name, relation string, conds, consequent []CFDCondition) *GFD {
	return core.FromConstantCFD(name, relation, conds, consequent)
}

// RequireAttr builds the GFD forcing every node of a type to carry an
// attribute (Section 3, special case 3).
func RequireAttr(name, typ, attr string) *GFD { return core.RequireAttr(name, typ, attr) }

// Satisfiable decides whether Σ has a model (Theorem 1). The returned
// Conflict is non-nil exactly when the set is unsatisfiable.
func Satisfiable(s *Set) (bool, *Conflict) { return reason.Satisfiable(s) }

// Implies decides Σ |= ϕ (Theorem 5). Σ is assumed satisfiable.
func Implies(s *Set, f *GFD) bool { return reason.Implies(s, f) }

// Reduce removes rules implied by the rest of the set — the workload
// reduction optimization.
func Reduce(s *Set) *Set { return reason.Reduce(s) }

// Partition fragments a graph into n fragments by node hashing, for
// Options.Frag (a session caches these per graph version when Options.Frag
// is left nil).
func Partition(g *Graph, n int) *Fragmentation {
	return fragment.Partition(g, n, fragment.Hash)
}

// MineConfig configures rule mining.
type MineConfig = gen.MineConfig

// MineGFDs generates GFDs from frequent features of g, as in the paper's
// evaluation setup.
func MineGFDs(g *Graph, cfg MineConfig) *Set { return gen.MineGFDs(g, cfg) }

// Incremental validation: maintain Vio(Σ, G) under updates (node/edge
// insertions and attribute assignments) by enumerating only the matches
// through the touched nodes and inserted edges.
type (
	// IncrementalDetector maintains the violation set across updates.
	IncrementalDetector = incremental.Detector
	// UpdateAddNode inserts a node.
	UpdateAddNode = incremental.AddNode
	// UpdateAddEdge inserts an edge.
	UpdateAddEdge = incremental.AddEdge
	// UpdateSetAttr assigns an attribute value.
	UpdateSetAttr = incremental.SetAttr
)

// NewIncremental builds an incremental detector with an initial full
// validation of g against Σ. The detector writes through the graph's live
// Overlay and enumerates through each batch's delta on the compiled match
// path; no full snapshot is rebuilt per batch. Session.Incremental builds
// the same detector: every detector and Session.Apply of one graph share
// its live overlay, so a session's prepared rule sets follow the updates
// without re-freezing.
func NewIncremental(g *Graph, s *Set) *IncrementalDetector { return incremental.New(g, s) }

// RepairSuggestion is one proposed attribute fix derived from a violation
// report.
type RepairSuggestion = repair.Suggestion

// SuggestRepairs analyzes a violation report and proposes attribute
// repairs: failed constant literals state the required value outright;
// failed variable literals are resolved by blame voting across
// disagreeing partners.
func SuggestRepairs(g *Graph, s *Set, vio Report) []RepairSuggestion {
	return repair.Suggest(g, s, vio)
}

// ApplyRepairs replays suggestions with confidence at or above threshold
// onto the graph and reports how many were applied.
func ApplyRepairs(g *Graph, suggestions []RepairSuggestion, threshold float64) int {
	return repair.Apply(g, suggestions, threshold)
}
