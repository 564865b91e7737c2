package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"time"

	"gfd"
	"gfd/internal/core"
	"gfd/internal/fragment"
	"gfd/internal/graph"
	"gfd/internal/incremental"
	"gfd/internal/match"
	"gfd/internal/pattern"
	"gfd/internal/reason"
	"gfd/internal/store"
	"gfd/internal/validate"
	wl "gfd/internal/workload"
)

// layerMetric declares one per-layer metric. The list is the contract with
// BENCHMARK.json: a traced run emits each name exactly once, 0 where the
// workload bypasses the layer (dist.* outside kb_dist, incremental.*
// outside kb_updates).
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	// store
	{"store.open_s", "s", "lower"},
	{"store.open_nocrc_s", "s", "lower"},
	{"store.bytes_per_edge", "B/edge", "lower"},
	{"store.save_s", "s", "lower"},
	// graph
	{"graph.freeze_s", "s", "lower"},
	{"graph.snapshot_builds", "count", "lower"},
	{"graph.intersect_ns_per_out", "ns", "lower"},
	{"graph.block_ns_per_node", "ns", "lower"},
	{"graph.overlay_apply_ns_per_update", "ns", "lower"},
	// session, pattern, core, reason
	{"session.prepare_s", "s", "lower"},
	{"session.warm_detect_s", "s", "lower"},
	{"session.op_s_tail", "s", "lower"},
	{"session.op_tail_pct", "%", "higher"},
	{"session.op_s_max", "s", "lower"},
	{"session.first_violation_s_tail", "s", "lower"},
	{"pattern.compile_ns_per_rule", "ns", "lower"},
	{"reason.reduce_s", "s", "lower"},
	{"core.literal_ns_per_match", "ns", "lower"},
	// match
	{"match.enumerate_s", "s", "lower"},
	{"match.matches", "count", "lower"},
	{"match.ns_per_match", "ns", "lower"},
	{"match.nointersect_ns_per_match", "ns", "lower"},
	{"match.overlay_ns_per_match", "ns", "lower"},
	// validate
	{"validate.estimate_s", "s", "lower"},
	{"validate.detect_s", "s", "lower"},
	{"validate.other_s", "s", "lower"},
	{"validate.modeled_s", "s", "lower"},
	{"validate.units", "count", "lower"},
	{"validate.groups", "count", "lower"},
	{"validate.split_units", "count", "lower"},
	{"validate.balance_ratio", "ratio", "lower"},
	{"validate.est_builds", "count", "lower"},
	{"validate.est_reused", "count", "higher"},
	{"validate.est_measured", "count", "lower"},
	{"validate.retries", "count", "lower"},
	{"validate.failed_units", "count", "lower"},
	{"validate.collect_ns_per_violation", "ns", "lower"},
	{"validate.sort_s", "s", "lower"},
	{"validate.pipe_ns_per_violation", "ns", "lower"},
	// workload
	{"workload.pivot_candidates", "count", "lower"},
	{"workload.balance_lpt_s", "s", "lower"},
	// fragment, dist
	{"fragment.partition_s", "s", "lower"},
	{"fragment.cut_edges_share", "ratio", "lower"},
	{"fragment.save_shards_s", "s", "lower"},
	{"dist.frames", "count", "lower"},
	{"dist.bytes_shipped", "B", "lower"},
	{"dist.frames_per_unit", "ratio", "lower"},
	{"dist.disval_sim_s", "s", "lower"},
	{"dist.wall_over_sim", "ratio", "lower"},
	{"dist.child_cpu_s_per_op", "s", "lower"},
	{"dist.coord_cpu_s_per_op", "s", "lower"},
	{"dist.child_peak_rss_mb", "MB", "lower"},
	{"dist.retries", "count", "lower"},
	{"dist.worker_deaths", "count", "lower"},
	// incremental
	{"incremental.new_s", "s", "lower"},
	{"incremental.apply_s_p50", "s", "lower"},
	{"incremental.apply_s_tail", "s", "lower"},
	{"incremental.compactions", "count", "lower"},
	// spans recorded by the benchmark around the public calls of an op:
	// mean self time per traced op
	{"span.op.self_s", "s", "lower"},
	{"span.core.parse.self_s", "s", "lower"},
	{"span.store.open.self_s", "s", "lower"},
	{"span.session.prepare.self_s", "s", "lower"},
	{"span.validate.run.self_s", "s", "lower"},
	{"span.validate.estimate.self_s", "s", "lower"},
	{"span.validate.detect.self_s", "s", "lower"},
	{"span.store.close.self_s", "s", "lower"},
	{"span.incremental.apply.self_s", "s", "lower"},
	{"span.session.scan.self_s", "s", "lower"},
	// process
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.cpu_over_wall", "ratio", "higher"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.host_factor", "ratio", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// timeMedian runs f until it has taken budget in total (at least minReps,
// at most maxReps times) and returns the median seconds of one run.
func timeMedian(budget time.Duration, f func()) float64 {
	var runs []float64
	start := time.Now()
	for len(runs) < minReps || (time.Since(start) < budget && len(runs) < maxReps) {
		t := time.Now()
		f()
		runs = append(runs, time.Since(t).Seconds())
	}
	return median(runs)
}

const minReps, maxReps = 3, 25

// perLayer turns a traced loop plus the micro-probes into the per-layer
// metrics. The probes run here only, after the loop, on the workload's own
// artifacts; they may import any internal package.
func perLayer(w *workload, a *artifacts, st *loopStats, tr *tracer, runSeconds float64) metrics {
	m := metrics{}
	for _, lm := range layerMetrics {
		m.set(lm.name, 0, lm.unit)
	}
	put := func(name string, v float64) {
		old, ok := m[name]
		if !ok {
			panic("undeclared per-layer metric " + name)
		}
		m.set(name, v, old.Unit)
	}
	loopMetrics(w, a, st, tr, put)
	// A probe gets a fortieth of the run length: 250 ms at the 10 s of
	// BENCHMARK.json, a few ms in the toy-scale test.
	budget := time.Duration(runSeconds / 40 * float64(time.Second))
	if err := probeLayers(w, a, st, budget, put); err != nil {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = fmt.Errorf("probe: %w", err)
		}
	}
	return m
}

// loopMetrics derives the metrics that come from the traced loop itself:
// the engines' own Result fields, the spans, the process counters.
func loopMetrics(w *workload, a *artifacts, st *loopStats, tr *tracer, put func(string, float64)) {
	n := len(st.samples)
	if n == 0 {
		return
	}
	walls := values(st.samples, wallOf)
	firsts := values(st.samples, firstOf)
	tail, pct := tailOf(walls)
	put("session.op_s_tail", tail)
	put("session.op_tail_pct", pct)
	put("session.op_s_max", slices.Max(walls))
	ftail, _ := tailOf(firsts)
	put("session.first_violation_s_tail", ftail)

	var traced, untraced []float64
	for i, s := range st.samples {
		if s.traced {
			traced = append(traced, walls[i])
		} else {
			untraced = append(untraced, walls[i])
		}
	}
	if len(traced) > 0 && len(untraced) > 0 {
		put("trace.overhead_ratio", median(traced)/median(untraced))
		for name, self := range tr.selfTimes() {
			put("span."+name+".self_s", self.Seconds()/float64(len(traced)))
		}
	}

	med := func(pick func(*gfd.Result) float64) float64 {
		vs := make([]float64, n)
		for i := range st.samples {
			vs[i] = pick(&st.samples[i].res)
		}
		return median(vs)
	}
	est := med(func(r *gfd.Result) float64 { return r.EstimateWall.Seconds() })
	det := med(func(r *gfd.Result) float64 { return r.DetectWall.Seconds() })
	wall := med(func(r *gfd.Result) float64 { return r.Wall.Seconds() })
	if est == 0 && det == 0 {
		det = wall // the sequential engine reports one wall: all detection
	}
	put("validate.estimate_s", est)
	put("validate.detect_s", det)
	put("validate.other_s", max(0, wall-est-det))
	put("validate.modeled_s", med(func(r *gfd.Result) float64 { return r.ModeledTime().Seconds() }))
	last := &st.samples[n-1].res
	put("validate.units", float64(last.Units))
	put("validate.groups", float64(last.Groups))
	put("validate.split_units", float64(last.SplitUnits))
	if last.TotalWeight > 0 {
		put("validate.balance_ratio", float64(last.Makespan)*float64(a.oracle.Workers)/float64(last.TotalWeight))
	}
	var retries, failedUnits, deaths int
	for _, s := range st.samples {
		retries += s.res.Completeness.Retries
		failedUnits += s.res.Completeness.Failed
		deaths += s.res.Completeness.WorkerDeaths
	}
	put("validate.retries", float64(retries))
	put("validate.failed_units", float64(failedUnits))

	put("graph.snapshot_builds", float64(st.builds))
	put("proc.peak_rss_mb", peakRSSMB())
	put("proc.cpu_over_wall", (st.selfCPU+st.childCPU).Seconds()/st.wall.Seconds())
	put("proc.gc_pause_ms", st.gcPause.Seconds()*1000)
	put("proc.host_factor", median(values(st.samples, factorOf)))

	if w.updates {
		// The op's time-to-first is the incremental apply.
		put("incremental.apply_s_p50", median(firsts))
		put("incremental.apply_s_tail", ftail)
		put("incremental.compactions", float64(st.builds))
	}
	if w.shards {
		put("dist.frames", float64(last.Messages))
		put("dist.bytes_shipped", float64(last.BytesShipped))
		if last.Units > 0 {
			put("dist.frames_per_unit", float64(last.Messages)/float64(last.Units))
		}
		put("dist.child_cpu_s_per_op", st.childCPU.Seconds()/float64(st.attempted))
		put("dist.coord_cpu_s_per_op", st.selfCPU.Seconds()/float64(st.attempted))
		put("dist.child_peak_rss_mb", float64(st.childRSS)/1024)
		put("dist.retries", float64(retries))
		put("dist.worker_deaths", float64(deaths))
	}
}

// probeLayers runs the micro-probes: each layer's own entry points, timed
// alone on the workload's artifacts.
func probeLayers(w *workload, a *artifacts, st *loopStats, probeBudget time.Duration, put func(string, float64)) error {
	ctx := context.Background()
	n := a.oracle.Workers

	// store: open with and without body checksums, bytes on disk, save.
	fi, err := os.Stat(a.graph)
	if err != nil {
		return err
	}
	put("store.bytes_per_edge", float64(fi.Size())/float64(max(1, a.oracle.Edges)))
	var openErr error
	openClose := func(opts ...store.Option) func() {
		return func() {
			l, err := store.Open(ctx, a.graph, opts...)
			if err != nil {
				openErr = err
				return
			}
			l.Close()
		}
	}
	put("store.open_s", timeMedian(probeBudget, openClose()))
	put("store.open_nocrc_s", timeMedian(probeBudget, openClose(store.SkipChecksums())))
	if openErr != nil {
		return openErr
	}
	l, err := store.Open(ctx, a.graph)
	if err != nil {
		return err
	}
	defer l.Close()
	snap := l.Snapshot()
	tmp := filepath.Join(a.dir, "probe.gfds")
	var saveErr error
	put("store.save_s", timeMedian(probeBudget, func() { saveErr = store.Save(ctx, snap, tmp) }))
	os.Remove(tmp)
	if saveErr != nil {
		return saveErr
	}

	// session: cold prepare (Prepare + first Bundle) on a fresh session,
	// then the first and the second Detect of one Prepared with the
	// workload's engine; the second is what caches leave of the first.
	// (compiled artifacts are memoized on the rule objects, so every
	// repetition prepares a freshly parsed set).
	text, err := os.ReadFile(filepath.Join(a.dir, rulesFile))
	if err != nil {
		return err
	}
	fresh := make([]*gfd.Set, maxReps)
	for i := range fresh {
		fresh[i] = mustParseRules(string(text))
	}
	rep := 0
	put("session.prepare_s", timeMedian(probeBudget, func() {
		sess, _ := gfd.NewSession(snap.Graph())
		if prep, err := sess.Prepare(fresh[rep]); err == nil {
			prep.Bundle()
		}
		rep++
	}))
	sess, err := gfd.NewSession(snap.Graph())
	if err != nil {
		return err
	}
	prep, err := sess.Prepare(a.set)
	if err != nil {
		return err
	}
	opt := gfd.Options{Engine: w.engine, N: n}
	if _, err := prep.Detect(ctx, opt); err != nil {
		return err
	}
	var report gfd.Report
	put("session.warm_detect_s", timeMedian(probeBudget, func() {
		if res, err := prep.Detect(ctx, opt); err == nil {
			report = res.Violations
		}
	}))
	es := prep.Bundle().EstimationStats()
	put("validate.est_builds", float64(es.Builds))
	put("validate.est_reused", float64(es.Reused))
	put("validate.est_measured", float64(es.Measured))

	// pattern, core, reason: lowering and reasoning per rule set.
	rules := a.set.Rules()
	syms := snap.Syms()
	put("pattern.compile_ns_per_rule", 1e9*timeMedian(probeBudget/5, func() {
		for _, f := range rules {
			pattern.Compile(f.Q, syms)
		}
	})/float64(len(rules)))
	put("reason.reduce_s", timeMedian(probeBudget, func() { reason.Reduce(a.set) }))

	// match: every rule's pattern enumerated with a no-op yield — on the
	// snapshot with and without the intersection step, and through a live
	// overlay (the generic-topology path).
	enumerate := func(topo graph.Topology, opts match.Options) (secs float64, matches int) {
		mt := match.NewMatcher(topo)
		secs = timeMedian(2*probeBudget, func() {
			matches = 0
			for _, f := range rules {
				mt.Enumerate(f.Q, opts, func(core.Match) bool { matches++; return true })
			}
		})
		return secs, matches
	}
	secs, matches := enumerate(snap, match.Options{})
	perMatch := func(secs float64) float64 { return 1e9 * secs / float64(max(1, matches)) }
	put("match.enumerate_s", secs)
	put("match.matches", float64(matches))
	put("match.ns_per_match", perMatch(secs))
	secs, _ = enumerate(snap, match.Options{NoIntersect: true})
	put("match.nointersect_ns_per_match", perMatch(secs))

	// core: the compiled X → Y check over up to 4096 collected matches a rule.
	var litSecs float64
	var litMatches int
	mt := match.NewMatcher(snap)
	for _, f := range rules {
		var ms []core.Match
		mt.Enumerate(f.Q, match.Options{Limit: 4096}, func(h core.Match) bool {
			ms = append(ms, slices.Clone(h))
			return true
		})
		prog := f.CompileLiterals(syms)
		vio := 0
		litSecs += timeMedian(probeBudget/10, func() {
			for _, h := range ms {
				if prog.IsViolation(snap, h) {
					vio++
				}
			}
		})
		litMatches += len(ms)
	}
	put("core.literal_ns_per_match", 1e9*litSecs/float64(max(1, litMatches)))

	// graph: intersection of sampled adjacency-range pairs, neighbourhood
	// blocks of sampled pivots.
	rng := rand.New(rand.NewSource(1))
	nodes := snap.NumNodes()
	var pairs [][][]graph.CSREdge
	for tries := 0; len(pairs) < 2048 && tries < 1<<16; tries++ {
		u := graph.NodeID(rng.Intn(nodes))
		out := snap.Out(u)
		if len(out) == 0 {
			continue
		}
		// The two ranges a closing pattern node sees: out-neighbours of u
		// and in-neighbours of one of u's out-neighbours' targets, under
		// one edge label each.
		e := out[rng.Intn(len(out))]
		next := snap.Out(e.To)
		if len(next) == 0 {
			continue
		}
		f := next[rng.Intn(len(next))]
		pairs = append(pairs, [][]graph.CSREdge{snap.OutWith(u, e.Label), snap.InWith(f.To, f.Label)})
	}
	var dst []graph.NodeID
	outs := 0
	isecs := timeMedian(probeBudget, func() {
		outs = 0
		for _, p := range pairs {
			dst = graph.IntersectAdjacency(dst[:0], p)
			outs += len(dst)
		}
	})
	if outs > 0 {
		put("graph.intersect_ns_per_out", 1e9*isecs/float64(outs))
	}
	pivots := make([]graph.NodeID, 256)
	for i := range pivots {
		pivots[i] = graph.NodeID(rng.Intn(nodes))
	}
	blockNodes := 0
	bsecs := timeMedian(probeBudget, func() {
		blockNodes = 0
		for _, v := range pivots {
			blockNodes += len(snap.Neighborhood(v, 2))
		}
	})
	put("graph.block_ns_per_node", 1e9*bsecs/float64(max(1, blockNodes)))

	// workload: pivot candidates of the rule set, LPT over the run's units.
	cands := 0
	for _, f := range rules {
		pv := wl.ComputePivot(f.Q)
		for i := 0; i < pv.Arity(); i++ {
			cands += len(pv.CandidatesIn(snap, i))
		}
	}
	put("workload.pivot_candidates", float64(cands))
	units := cands
	if k := len(st.samples); k > 0 && st.samples[k-1].res.Units > 0 {
		units = st.samples[k-1].res.Units
	}
	weights := make([]int, units)
	for i := range weights {
		weights[i] = 1 + rng.Intn(1000)
	}
	put("workload.balance_lpt_s", timeMedian(probeBudget, func() { wl.BalanceLPT(weights, n) }))

	// validate: the sinks alone, fed the warm Detect's report.
	if len(report) > 0 {
		perVio := func(secs float64) float64 { return 1e9 * secs / float64(len(report)) }
		put("validate.collect_ns_per_violation", perVio(timeMedian(probeBudget, func() {
			cs := validate.NewCollectSink(1)
			for _, v := range report {
				cs.Emit(0, v)
			}
			cs.Report()
		})))
		put("validate.sort_s", timeMedian(probeBudget, func() { slices.Clone(report).Sort() }))
		put("validate.pipe_ns_per_violation", perVio(timeMedian(probeBudget, func() {
			ps := validate.NewPipeSink(ctx, 1, 0)
			go func() {
				for _, v := range report {
					ps.Emit(0, v)
				}
				ps.Close()
			}()
			for range ps.Out() {
			}
		})))
	}

	// Everything below mutates: a private heap copy of the graph.
	g := snap.Graph().Clone()
	ov := graph.NewOverlay(g)
	secs, _ = enumerate(ov, match.Options{})
	put("match.overlay_ns_per_match", perMatch(secs))
	put("graph.freeze_s", timeMedian(2*probeBudget, func() {
		g.AddNode("probe", nil) // a new version, so Freeze rebuilds
		g.Freeze()
	}))

	if w.updates {
		put("incremental.new_s", timeMedian(2*probeBudget, func() { incremental.New(g, a.set) }))
		// The stream was consumed by the loop; reload it for ApplyTo alone.
		var stream [][]update
		if err := readJSON(filepath.Join(a.dir, updatesFile), &stream); err != nil {
			return err
		}
		fov := graph.NewOverlay(snap.Graph().Clone())
		applied := 0
		start := time.Now()
		for _, b := range stream[:min(len(stream), 16)] {
			for _, u := range b {
				incremental.ApplyTo(fov, u.decode())
				applied++
			}
		}
		put("graph.overlay_apply_ns_per_update", float64(time.Since(start).Nanoseconds())/float64(max(1, applied)))
	}
	if w.shards {
		var frag *fragment.Fragmentation
		put("fragment.partition_s", timeMedian(probeBudget, func() { frag = fragment.Partition(snap.Graph(), n, fragment.Hash) }))
		put("fragment.cut_edges_share", float64(frag.CutEdges())/float64(max(1, a.oracle.Edges)))
		shardDir := filepath.Join(a.dir, "probe-shards")
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return err
		}
		var shardErr error
		put("fragment.save_shards_s", timeMedian(probeBudget, func() { _, shardErr = frag.SaveShards(ctx, shardDir, "p") }))
		os.RemoveAll(shardDir)
		if shardErr != nil {
			return shardErr
		}
		// The in-process simulation over the same partition, warm: bundle
		// and fragmentation built once, as a session would keep them.
		b := validate.NewBundle(snap.Graph(), a.set)
		var simErr error
		sim := timeMedian(2*probeBudget, func() {
			_, simErr = validate.DisValB(ctx, b, frag, validate.Options{N: n}, nil)
		})
		if simErr != nil {
			return simErr
		}
		put("dist.disval_sim_s", sim)
		if sim > 0 {
			put("dist.wall_over_sim", median(values(st.samples, wallOf))/sim)
		}
	}
	return nil
}
