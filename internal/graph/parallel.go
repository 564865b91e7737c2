package graph

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
)

// This file holds the worker count and the two primitives the package's
// parallel passes share: buildSnapshot's fill-and-sort pass and the
// validation of an adopted image (Flat.validate). Both split the nodes
// into degree-balanced ranges (shardByOffsets) and run them as short
// tasks from a shared counter (drain).

// minSizePerWorker is the least |V|+|E| per worker of a parallel pass:
// below it a goroutine costs more than the share it would take over.
const minSizePerWorker = 1 << 12

// tasksPerWorker is how many node ranges each worker of a parallel pass
// gets on average: enough that a worker descheduled mid-pass holds up one
// short task, not a share of the graph.
const tasksPerWorker = 4

// workersFor is the worker count of a parallel pass over a graph of
// |V|+|E| = size: GOMAXPROCS, at most one per minSizePerWorker.
func workersFor(size int) int {
	return max(1, min(runtime.GOMAXPROCS(0), size/minSizePerWorker))
}

// shard is one task's contiguous node range [lo, hi).
type shard struct{ lo, hi int }

// drain runs fn(0) … fn(n-1) on the calling goroutine and up to workers-1
// helper goroutines. Task 0 is the caller's own, started before any
// helper could take it, so the one long task of a pass belongs there; the
// rest are taken one at a time from a shared counter, so the caller never
// waits on a helper that has not started, and a helper slow to be
// scheduled (or descheduled mid-pass) holds up at most the one short task
// it took while the caller does the others. Every goroutine recovers its
// own panic, and the first is re-raised on the caller once all have
// stopped.
func drain(workers, n int, fn func(i int)) {
	if n == 0 {
		return
	}
	var next atomic.Int64
	next.Store(1)
	run := func(first bool) (p any) {
		defer func() { p = recover() }()
		if first {
			fn(0)
		}
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
		return nil
	}
	helpers := max(min(workers, n)-1, 0)
	panics := make([]any, helpers+1)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 1; h <= helpers; h++ {
		go func() {
			defer wg.Done()
			panics[h] = run(false)
		}()
	}
	panics[0] = run(true)
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// shardByOffsets splits [0, n) into at most `workers` contiguous ranges
// balanced by per-node work: the deltas of the given offset arrays (each of
// length n+1, validated monotone) plus one unit per node, so degree-zero
// stretches still spread across workers. The weight up to a node is a sum
// of offsets, so each cut is a binary search, not a scan.
func shardByOffsets(workers int, offs ...[]int32) []shard {
	n := len(offs[0]) - 1
	if n <= 0 {
		return nil
	}
	workers = max(1, min(workers, n))
	weight := func(v int) int64 {
		w := int64(v)
		for _, off := range offs {
			w += int64(off[v])
		}
		return w
	}
	total := weight(n)
	out := make([]shard, 0, workers)
	lo := 0
	for k := 1; k < workers; k++ {
		target := total * int64(k) / int64(workers)
		if hi := sort.Search(n, func(v int) bool { return weight(v) >= target }); hi > lo {
			out = append(out, shard{lo, hi})
			lo = hi
		}
	}
	if lo < n {
		out = append(out, shard{lo, n})
	}
	return out
}
