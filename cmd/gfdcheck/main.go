// gfdcheck validates a property graph against a set of GFD rules and
// reports the violation set Vio(Σ, G). It demonstrates the intended
// lifecycle: read the graph, open a Session, Prepare the rules once, then
// Detect — or, with -stream, pull violations lazily from the Violations
// iterator as the engines find them — with the selected engine.
//
// Usage:
//
//	gfdcheck -graph g.graph -rules r.gfd [-mode seq|rep|dis|dist|gcfd|bigdansing] [-n 8] [-v] [-stream] [-timeout 30s]
//
// Mode dist runs detection as real worker processes over persisted shards:
// pass -manifest with the shard manifest written by gfdgen -fragments (the
// worker count comes from the manifest, not -n). Workers are respawned
// re-executions of this binary.
//
// The graph file uses the line format of package graph (node/edge lines),
// or — with a .gfds extension — the binary snapshot format written by
// gfdgen -snapshot / gfd.SaveSnapshot, which is mapped read-only and
// skips the build+freeze phase entirely (snapshot files carry no node
// names, so violations print #id placeholders). The rules file uses the
// gfd block format (see README.md). Exit status:
//
//	0   the graph satisfies Σ
//	1   violations were found (complete report)
//	2   errors (bad input, corrupt or version-skewed snapshot file,
//	    unknown mode, engine failure)
//	3   the -timeout deadline expired before detection finished
//	4   the result is partial (retry budgets exhausted under worker
//	    failures) and no violations were found — "clean" cannot be
//	    certified; violations found in a partial run still exit 1
//	130 interrupted by the user (SIGINT/SIGTERM)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gfd"
)

// engines maps -mode values to the session engine selector.
var engines = map[string]gfd.Engine{
	"seq":        gfd.EngineSequential,
	"rep":        gfd.EngineReplicated,
	"dis":        gfd.EngineFragmented,
	"dist":       gfd.EngineDistributed,
	"gcfd":       gfd.EngineGCFD,
	"bigdansing": gfd.EngineBigDansing,
}

func main() {
	// This binary doubles as the distributed engine's worker executable:
	// when spawned with the worker environment set, it becomes a shard
	// worker here and never reaches flag parsing.
	gfd.MaybeWorker()
	var (
		graphPath = flag.String("graph", "", "graph file (required)")
		rulesPath = flag.String("rules", "", "GFD rules file (required)")
		mode      = flag.String("mode", "rep", "engine: seq (detVio), rep (repVal), dis (disVal), dist (multi-process over shards), gcfd, bigdansing")
		manifest  = flag.String("manifest", "", "shard manifest written by gfdgen -fragments (required for -mode dist)")
		workers   = flag.Int("n", 8, "workers for the parallel engines")
		verbose   = flag.Bool("v", false, "print each violation")
		stream    = flag.Bool("stream", false, "pull violations from the iterator pipeline as they are found instead of collecting a report (implies -v; prints time-to-first-violation)")
		timeout   = flag.Duration("timeout", 0, "abort detection after this long (0 = no limit)")
		doCheck   = flag.Bool("check-rules", true, "check rule-set satisfiability before validating")
		doReduce  = flag.Bool("reduce", false, "drop implied rules before validating")
	)
	flag.Parse()
	if *graphPath == "" || *rulesPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-n %d: the parallel engines need at least one worker", *workers))
	}
	engine, ok := engines[*mode]
	if !ok {
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
	if *mode == "dist" && *manifest == "" {
		fatal(errors.New("-mode dist requires -manifest (write one with gfdgen -fragments)"))
	}

	// A .gfds graph is opened straight off its read-only mapping: no text
	// parse, no rebuild, no freeze — the session below starts from the
	// persisted snapshot with zero snapshot builds. Load failures (missing
	// file, corruption, format version skew) are input errors: exit 2.
	var (
		g     *gfd.Graph
		names map[string]gfd.NodeID
		sess  *gfd.Session
	)
	if strings.HasSuffix(*graphPath, ".gfds") {
		var loaded *gfd.LoadedSnapshot
		var err error
		sess, loaded, err = gfd.OpenSnapshot(context.Background(), *graphPath)
		if err != nil {
			fatal(snapshotErr(*graphPath, err))
		}
		g = loaded.Snapshot().Graph() // mapping lives for the process; exit unmaps
	} else {
		var err error
		g, names, err = readGraph(*graphPath)
		if err != nil {
			fatal(err)
		}
	}
	set, err := readRules(*rulesPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges; rules: %d\n", g.NumNodes(), g.NumEdges(), set.Len())

	if *doCheck {
		if ok, conflict := gfd.Satisfiable(set); !ok {
			fmt.Fprintf(os.Stderr, "rule set is unsatisfiable: %v\n", conflict)
			os.Exit(2)
		}
	}
	if *doReduce {
		before := set.Len()
		set = gfd.Reduce(set)
		fmt.Printf("reduction: %d -> %d rules\n", before, set.Len())
	}

	// The session lifecycle: prepare once, detect with any engine. A
	// long-running checker would keep sess and prep alive across requests
	// and graph updates; here one invocation is one Detect. (A .gfds input
	// arrives with its session already opened over the mapping.)
	if sess == nil {
		sess, err = gfd.NewSession(g)
		if err != nil {
			fatal(err)
		}
	}
	prep, err := sess.Prepare(set)
	if err != nil {
		fatal(err)
	}
	// A SIGINT/SIGTERM cancels the context (exit 130); the -timeout flag
	// arms a deadline (exit 3). The two expire the same context but are
	// reported differently — an operator's ^C is not a capacity problem.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opt := gfd.Options{Engine: engine, N: *workers}
	if *mode == "dist" {
		opt.Dist = &gfd.DistOptions{ManifestPath: *manifest}
	}

	rev := make(map[gfd.NodeID]string, len(names))
	for name, id := range names {
		rev[id] = name
	}
	printViolation := func(v gfd.Violation) {
		fmt.Printf("  %s:", v.Rule)
		for _, n := range v.Nodes() {
			name := rev[n]
			if name == "" {
				// Snapshot files carry no node names; fall back to the id.
				name = fmt.Sprintf("#%d", n)
			}
			fmt.Printf(" %s(%s)", name, g.Label(n))
		}
		fmt.Println()
	}

	var (
		nViolations int
		partial     bool
	)
	if *stream {
		// The pull-based pipeline: violations print the moment a worker
		// finds them, and the engine's instrumentation (census, timings)
		// is still available afterwards through ViolationsResult.
		var (
			res       gfd.Result
			count     int
			firstAt   time.Duration
			streamErr error
		)
		start := time.Now()
		for v, err := range prep.ViolationsResult(ctx, opt, &res) {
			if err != nil {
				streamErr = err
				break
			}
			if count == 0 {
				firstAt = time.Since(start)
			}
			count++
			printViolation(v)
		}
		if count > 0 {
			fmt.Printf("time to first violation: %v (full stream %v)\n", firstAt.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))
		}
		if streamErr != nil {
			partial = reportDetectError(streamErr, *timeout, res.Completeness)
		}
		nViolations = count
	} else {
		res, err := prep.Detect(ctx, opt)
		if err != nil {
			partial = reportDetectError(err, *timeout, res.Completeness)
		}
		switch engine {
		case gfd.EngineReplicated:
			fmt.Printf("repVal: %d units over %d workers, wall %v\n", res.Units, *workers, res.Wall.Round(0))
		case gfd.EngineFragmented:
			fmt.Printf("disVal: %d units, shipped %d bytes in %d rounds, wall %v\n",
				res.Units, res.BytesShipped, res.Rounds, res.Wall.Round(0))
		case gfd.EngineDistributed:
			// The worker-process count comes from the manifest, not -n.
			fmt.Printf("dist: %d units, shipped %d bytes in %d frames, wall %v\n",
				res.Units, res.BytesShipped, res.Messages, res.Wall.Round(0))
		case gfd.EngineGCFD:
			fmt.Printf("gcfd: %d of %d rules expressible, wall %v\n", res.Rules, set.Len(), res.Wall.Round(0))
		}
		if *verbose {
			for _, v := range res.Violations {
				printViolation(v)
			}
		}
		nViolations = len(res.Violations)
	}
	fmt.Printf("violations: %d\n", nViolations)
	switch {
	case nViolations > 0:
		os.Exit(1)
	case partial:
		// No violations surfaced, but some units never ran to completion:
		// "satisfied" cannot be certified.
		os.Exit(4)
	}
}

// reportDetectError classifies a Detect/Violations error, printing the
// completeness census FIRST — an interrupted or timed-out operator must
// still learn how much of the workload actually ran before the process
// exits. A partial result (retry budgets exhausted under worker failures)
// returns true — the violations that were found are still printed, and
// the final exit status reflects the gap. Note ErrPartial is classified
// before the context errors: a distributed run whose unit failures wrap
// deadline kills is a partial result, not a -timeout expiry. Every other
// cause terminates: deadline expiry (exit 3), user interruption (exit
// 130), engine failure (exit 2).
func reportDetectError(err error, timeout time.Duration, c gfd.Completeness) bool {
	fmt.Fprintf(os.Stderr, "gfdcheck: completeness: %d/%d units succeeded, %d retries, %d worker deaths\n",
		c.Succeeded, c.Units, c.Retries, c.WorkerDeaths)
	switch {
	case errors.Is(err, gfd.ErrPartial):
		var pe *gfd.PartialError
		if errors.As(err, &pe) {
			fmt.Fprintf(os.Stderr, "gfdcheck: partial result: %d unit(s) failed after exhausting retries\n", len(pe.Failures))
			for _, f := range pe.Failures {
				fmt.Fprintf(os.Stderr, "  unit %d (group %d) after %d attempt(s): %v\n", f.Unit, f.Group, f.Attempts, f.Err)
			}
		} else {
			fmt.Fprintf(os.Stderr, "gfdcheck: partial result: %v\n", err)
		}
		return true
	case errors.Is(err, context.DeadlineExceeded):
		fmt.Fprintf(os.Stderr, "gfdcheck: deadline exceeded after %v; rerun with a larger -timeout\n", timeout)
		os.Exit(3)
	case errors.Is(err, context.Canceled):
		fmt.Fprintln(os.Stderr, "gfdcheck: interrupted")
		os.Exit(130)
	default:
		fatal(fmt.Errorf("detection aborted: %w", err))
	}
	panic("unreachable")
}

func readGraph(path string) (*gfd.Graph, map[string]gfd.NodeID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return gfd.ReadGraph(f)
}

func readRules(path string) (*gfd.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gfd.ParseRules(f)
}

// snapshotErr adds the remedy to a snapshot file this build cannot read:
// a file written in another format version (or on a machine of the other
// endianness) is regenerated from its source, not repaired.
func snapshotErr(path string, err error) error {
	if errors.Is(err, gfd.ErrSnapshotVersion) {
		return fmt.Errorf("%w; regenerate %s with gfdgen -snapshot", err, path)
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gfdcheck:", err)
	os.Exit(2)
}
