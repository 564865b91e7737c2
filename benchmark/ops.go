package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gfd"
	"gfd/internal/incremental"
)

// opResult is what one clocked op hands back. Wall and first are taken
// inside the op; everything compared against the oracle is compared after
// the clock stopped.
type opResult struct {
	wall  time.Duration // first call → the consumer has the last violation
	first time.Duration // first call → the consumer holds the first violation
	alloc uint64        // bytes allocated between those two instants
	vio   vioSet        // digest of what the consumer received
	res   gfd.Result    // the engine's own instrumentation
	err   error         // engine error, partial run, or oracle mismatch
}

// op is a workload's user action. Clocked code calls only the gfd facade
// and Session/Prepared/Detector methods.
type op struct {
	// run executes one op against the clock and verifies it.
	run func(ctx context.Context) opResult
	// hold, for cold workloads, performs one unclocked op and keeps its
	// session open so the live heap of a cold run can be read; the returned
	// func closes it.
	hold func(ctx context.Context) (release func(), err error)
	// builds reads the snapshot builds the op's graphs have paid so far.
	builds func() int
	// finish runs the workload's end-of-loop checks and releases what newOp
	// opened.
	finish func() error
}

// clock brackets the clocked part of an op: wall time and bytes allocated.
type clock struct {
	start  time.Time
	alloc0 uint64
}

func startClock() clock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return clock{time.Now(), ms.TotalAlloc}
}

func (c clock) stop(r *opResult) {
	r.wall = time.Since(c.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - c.alloc0
}

// verify runs after the clock stopped: it digests a collected report (the
// streaming ops hashed as they pulled) and fills r.err when the digest
// differs from want.
func (r *opResult) verify(a *artifacts, want vioSet) {
	r.vio.addReport(a.hashes, r.res.Violations)
	r.res.Violations = nil
	if r.err == nil && r.vio != want {
		r.err = fmt.Errorf("violations %+v, oracle %+v", r.vio, want)
	}
}

// drain pulls a violation stream to its end, hashing as it goes and noting
// when the first violation arrived, unless the op already holds one (the
// maintained set of kb_updates).
func drain(seq func(func(gfd.Violation, error) bool), a *artifacts, start time.Time, r *opResult) {
	for v, err := range seq {
		if err != nil {
			r.err = err
			return
		}
		if r.first == 0 {
			r.first = time.Since(start)
		}
		r.vio.add(a.hashes, v.Rule, v.Match)
	}
}

// coldSession is one cold start: rule file parsed, snapshot mapped,
// session prepared.
type coldSession struct {
	loaded *gfd.LoadedSnapshot
	sess   *gfd.Session
	prep   *gfd.Prepared
}

func openCold(ctx context.Context, a *artifacts, tr *tracer) (*coldSession, error) {
	sp := tr.begin("core.parse")
	f, err := os.Open(filepath.Join(a.dir, rulesFile))
	if err != nil {
		return nil, err
	}
	set, err := gfd.ParseRules(f)
	f.Close()
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("store.open")
	sess, loaded, err := gfd.OpenSnapshot(ctx, a.graph)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("session.prepare")
	prep, err := sess.Prepare(set)
	tr.end(sp)
	if err != nil {
		loaded.Close()
		return nil, err
	}
	return &coldSession{loaded, sess, prep}, nil
}

// coldOp builds the two cold workloads: every op starts from the files on
// disk and ends with the mapping closed. detect runs the engine on a fresh
// cold session and fills r.
func coldOp(a *artifacts, tr *tracer, detect func(ctx context.Context, cs *coldSession, start time.Time, r *opResult)) op {
	builds := 0
	once := func(ctx context.Context, start time.Time, r *opResult) *coldSession {
		cs, err := openCold(ctx, a, tr)
		if err != nil {
			r.err = err
			return nil
		}
		sp := tr.begin("validate.run")
		detect(ctx, cs, start, r)
		tr.end(sp)
		tr.phases(sp, &r.res)
		return cs
	}
	return op{
		run: func(ctx context.Context) opResult {
			var r opResult
			c := startClock()
			start := c.start
			root := tr.begin("op")
			if cs := once(ctx, start, &r); cs != nil {
				sp := tr.begin("store.close")
				err := cs.loaded.Close()
				tr.end(sp)
				c.stop(&r)
				builds += cs.sess.Graph().SnapshotBuilds()
				if r.err == nil {
					r.err = err
				}
			}
			tr.end(root)
			r.verify(a, a.oracle.Vio)
			return r
		},
		hold: func(ctx context.Context) (func(), error) {
			var r opResult
			cs := once(ctx, time.Now(), &r)
			if cs == nil {
				return nil, r.err
			}
			return func() { cs.loaded.Close() }, r.err
		},
		builds: func() int { return builds },
		finish: func() error { return nil },
	}
}

// newColdRepOp: open → prepare → stream the default engine (repVal) with
// zero-value options but N → close.
func newColdRepOp(a *artifacts, tr *tracer) (op, error) {
	return coldOp(a, tr, func(ctx context.Context, cs *coldSession, start time.Time, r *opResult) {
		drain(cs.prep.ViolationsResult(ctx, gfd.Options{N: a.oracle.Workers}, &r.res), a, start, r)
	}), nil
}

// newDistOp: open → prepare → Detect on N worker processes (this binary,
// re-executed) over the persisted shards → close. Collect mode: the first
// violation is in the consumer's hands when Detect returns.
func newDistOp(a *artifacts, tr *tracer) (op, error) {
	return coldOp(a, tr, func(ctx context.Context, cs *coldSession, start time.Time, r *opResult) {
		res, err := cs.prep.Detect(ctx, gfd.Options{
			Engine: gfd.EngineDistributed,
			Dist:   &gfd.DistOptions{ManifestPath: a.manifest},
		})
		r.first = time.Since(start)
		r.err = err
		if res != nil {
			r.res = *res
		}
	}), nil
}

// warmOp builds the two warm workloads: one session opened and prepared
// before the loop, each op one engine run on it.
func warmOp(a *artifacts, tr *tracer, detect func(ctx context.Context, prep *gfd.Prepared, start time.Time, r *opResult)) (op, error) {
	ctx := context.Background()
	sess, loaded, err := gfd.OpenSnapshot(ctx, a.graph)
	if err != nil {
		return op{}, err
	}
	prep, err := sess.Prepare(a.set)
	if err != nil {
		loaded.Close()
		return op{}, err
	}
	return op{
		run: func(ctx context.Context) opResult {
			var r opResult
			c := startClock()
			start := c.start
			root := tr.begin("op")
			sp := tr.begin("validate.run")
			detect(ctx, prep, start, &r)
			tr.end(sp)
			c.stop(&r)
			tr.phases(sp, &r.res)
			tr.end(root)
			r.verify(a, a.oracle.Vio)
			return r
		},
		builds: sess.Graph().SnapshotBuilds,
		finish: loaded.Close,
	}, nil
}

// newWarmSeqOp: Prepared.Violations with the sequential engine, drained.
func newWarmSeqOp(a *artifacts, tr *tracer) (op, error) {
	return warmOp(a, tr, func(ctx context.Context, prep *gfd.Prepared, start time.Time, r *opResult) {
		drain(prep.ViolationsResult(ctx, gfd.Options{Engine: gfd.EngineSequential}, &r.res), a, start, r)
	})
}

// newWarmCollectOp: Prepared.Detect with repVal on N workers — collect and
// canonical sort; verify hashes the report after the clock stops.
func newWarmCollectOp(a *artifacts, tr *tracer) (op, error) {
	return warmOp(a, tr, func(ctx context.Context, prep *gfd.Prepared, start time.Time, r *opResult) {
		res, err := prep.Detect(ctx, gfd.Options{Engine: gfd.EngineReplicated, N: a.oracle.Workers})
		r.first = time.Since(start)
		r.err = err
		if res != nil {
			r.res = *res
		}
	})
}

// newUpdatesOp: one session holding an incremental detector and a prepared
// rule set over the same overlay. Op: Detector.Apply of the next batch,
// then a sequential scan of the shared overlay. After the clock the
// maintained set must equal the scan; after the loop both must equal the
// oracle's sequential Detect on a fresh freeze of the updated graph.
func newUpdatesOp(a *artifacts, tr *tracer) (op, error) {
	ctx := context.Background()
	sess, loaded, err := gfd.OpenSnapshot(ctx, a.graph)
	if err != nil {
		return op{}, err
	}
	det := sess.Incremental(a.set)
	prep, err := sess.Prepare(a.set)
	if err != nil {
		loaded.Close()
		return op{}, err
	}
	maintained := func() vioSet {
		var vs vioSet
		for _, v := range det.Report() {
			vs.add(a.hashes, v.Rule, v.Match)
		}
		return vs
	}
	if got := maintained(); got != a.oracle.Vio || det.Len() != got.Count {
		loaded.Close()
		return op{}, fmt.Errorf("initial maintained set %+v (Len %d), oracle %+v", got, det.Len(), a.oracle.Vio)
	}
	batches := make([][]incremental.Update, len(a.updates))
	for i, b := range a.updates {
		for _, u := range b {
			batches[i] = append(batches[i], u.decode())
		}
	}
	a.updates = nil
	next := 0
	var last vioSet
	return op{
		run: func(ctx context.Context) opResult {
			var r opResult
			if next >= len(batches) {
				r.err = errors.New("update stream exhausted")
				return r
			}
			batch := batches[next]
			batches[next] = nil // consumed: keep the stream out of the live heap
			next++
			c := startClock()
			start := c.start
			root := tr.begin("op")
			sp := tr.begin("incremental.apply")
			det.Apply(batch...)
			tr.end(sp)
			r.first = time.Since(start)
			sp = tr.begin("session.scan")
			drain(prep.ViolationsResult(ctx, gfd.Options{Engine: gfd.EngineSequential}, &r.res), a, start, &r)
			tr.end(sp)
			c.stop(&r)
			tr.end(root)
			r.verify(a, maintained())
			if r.err == nil && det.Len() != r.vio.Count {
				r.err = fmt.Errorf("Detector.Len %d, scan found %d", det.Len(), r.vio.Count)
			}
			last = r.vio
			return r
		},
		// The adopted snapshot serves the first overlay, so every build
		// counted here is a compaction.
		builds: sess.Graph().SnapshotBuilds,
		finish: func() error {
			err := loaded.Close()
			if next == len(batches) && last != a.oracle.Final {
				err = fmt.Errorf("final violations %+v, oracle %+v", last, a.oracle.Final)
			}
			return err
		},
	}, nil
}
