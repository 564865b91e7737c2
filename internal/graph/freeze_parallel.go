package graph

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gfd/internal/fault"
)

// This file is the parallel freeze pipeline: buildSnapshotParallel produces
// a Snapshot byte-identical to buildSnapshot's (same CSR arrays, class
// ranges, attribute arena, and symbol table — TestParallelFreezeEquivalence
// and FuzzFreezeParallel pin the guarantee) while sharding the O(|V|+|E|)
// work across worker goroutines:
//
//	count      — per-shard degree/tuple counting into the offset arrays
//	offsets    — one serial prefix-sum pass merges counts into CSR offsets
//	symbols    — per-shard distinct-name scans with first-occurrence ranks,
//	             merged and interned in rank order (codes match the serial
//	             builder's interning order exactly)
//	labels     — node label codes, which the adjacency order reads
//	fill+sort  — disjoint node-range fills of the out/in halves and the
//	             attribute arena, each row (label, neighbor label,
//	             neighbor)- or name-sorted in the same worker pass
//	classes    — per-worker label counts merged into class offsets, then
//	             disjoint-range fills with per-worker cursors
//
// The serial builder remains the GOMAXPROCS==1 / small-graph path.

var freezeWorkersOverride atomic.Int32

// SetFreezeWorkers overrides the number of workers Freeze builds snapshots
// with; n <= 0 restores the default, GOMAXPROCS. It applies process-wide to subsequent builds.
func SetFreezeWorkers(n int) {
	if n < 0 {
		n = 0
	}
	freezeWorkersOverride.Store(int32(n))
}

// FreezeWorkers resolves the effective freeze worker count:
// SetFreezeWorkers override, else GOMAXPROCS.
func FreezeWorkers() int {
	if n := freezeWorkersOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// parallelFreezeMinSize is the |V|+|E| below which Freeze always takes the
// serial builder: goroutine fan-out and per-shard map merging cost more
// than the build itself on small graphs.
const parallelFreezeMinSize = 1 << 15

var (
	freezeFallbacks atomic.Int64
	freezeInjector  atomic.Pointer[fault.Injector]
)

// FreezeFallbacks returns how many times a parallel freeze failed and the
// build fell back to the serial builder — the probe the fault tests (and a
// production health check) watch. A nonzero count means degraded freeze
// performance, never a wrong snapshot.
func FreezeFallbacks() int { return int(freezeFallbacks.Load()) }

// SetFreezeInjector arms (nil: disarms) a fault injector crossed once per
// shard goroutine of every parallel build, letting the chaos tests panic a
// shard deterministically. Production never calls this; the crossing is a
// nil-check no-op.
func SetFreezeInjector(inj *fault.Injector) { freezeInjector.Store(inj) }

// buildSnapshotAuto is the builder Freeze dispatches to: parallel when
// more than one worker is resolved and the graph is large enough to
// amortize the fan-out, serial otherwise. A panic anywhere in the parallel
// pipeline (a shard goroutine or the merge code between phases) is
// recovered here and the build falls back to the serial builder: freezing
// degrades to slow before it degrades to failed.
func buildSnapshotAuto(g *Graph) *Snapshot {
	if w := FreezeWorkers(); w > 1 && g.Size() >= parallelFreezeMinSize {
		if s := tryBuildParallel(g, w); s != nil {
			return s
		}
		freezeFallbacks.Add(1)
	}
	return buildSnapshot(g)
}

// tryBuildParallel runs the parallel pipeline, converting any panic
// (re-raised onto this goroutine by runShards) into a nil result.
func tryBuildParallel(g *Graph, workers int) (s *Snapshot) {
	defer func() { _ = recover() }()
	return buildSnapshotParallel(g, workers)
}

// BuildSnapshot builds a fresh snapshot with an explicit worker count,
// bypassing Freeze's cache and the small-graph fallback: workers <= 1 runs
// the serial builder, anything larger the parallel pipeline. The
// differential tests and the freeze benchmark drive both paths through
// this; regular callers should use Freeze.
func (g *Graph) BuildSnapshot(workers int) *Snapshot {
	g.ensureThawed()
	if workers <= 1 || g.NumNodes() == 0 {
		return buildSnapshot(g)
	}
	return buildSnapshotParallel(g, workers)
}

// shard is one worker's contiguous node range [lo, hi).
type shard struct{ lo, hi int }

// runShards executes fn over every shard, one goroutine per shard (the
// single-shard case stays on the calling goroutine). A panicking shard no
// longer kills the process from an unrecoverable goroutine: every shard
// recovers its own panic, the surviving shards finish, and the first
// panic value is re-raised on the calling goroutine — where Freeze's
// fallback (or an explicit BuildSnapshot caller) can handle it.
func runShards(shards []shard, fn func(si, lo, hi int)) {
	inj := freezeInjector.Load()
	if len(shards) == 1 {
		inj.Cross(fault.FreezeShard, 0, -1)
		fn(0, shards[0].lo, shards[0].hi)
		return
	}
	panics := make([]any, len(shards))
	var wg sync.WaitGroup
	wg.Add(len(shards))
	for si, sh := range shards {
		go func(si, lo, hi int) {
			defer wg.Done()
			defer func() { panics[si] = recover() }()
			inj.Cross(fault.FreezeShard, si, -1)
			fn(si, lo, hi)
		}(si, sh.lo, sh.hi)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// drain runs fn(0) … fn(n-1) on the calling goroutine and up to workers-1
// helper goroutines. Task 0 is the caller's own, started before any
// helper could take it, so the one long task of a pass belongs there; the
// rest are taken one at a time from a shared counter, so the caller never
// waits on a helper that has not started, and a helper slow to be
// scheduled (or descheduled mid-pass) holds up at most the one short task
// it took while the caller does the others. Panics are handled as in
// runShards: every goroutine recovers its own, and the first is re-raised
// on the caller once all have stopped.
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

// shardRanges splits [0, n) into at most `workers` near-equal contiguous
// ranges (empty ranges dropped).
func shardRanges(n, workers int) []shard {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	out := make([]shard, 0, workers)
	base, rem := n/workers, n%workers
	lo := 0
	for i := 0; i < workers; i++ {
		size := base
		if i < rem {
			size++
		}
		if size > 0 {
			out = append(out, shard{lo, lo + size})
		}
		lo += size
	}
	return out
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

// firstSeen pairs a distinct name with the rank of its first occurrence in
// the serial builder's interning order.
type firstSeen struct {
	name string
	at   int64
}

// collectDistinct runs scan over every shard (each filling a private
// name -> first-occurrence-rank map), merges the shard maps by minimum
// rank, and returns the distinct names sorted by rank — the exact order
// the serial builder would have interned them in.
func collectDistinct(shards []shard, scan func(lo, hi int, seen map[string]int64)) []firstSeen {
	perShard := make([]map[string]int64, len(shards))
	runShards(shards, func(si, lo, hi int) {
		m := make(map[string]int64, 16)
		scan(lo, hi, m)
		perShard[si] = m
	})
	merged := perShard[0]
	for _, m := range perShard[1:] {
		for name, at := range m {
			if prev, ok := merged[name]; !ok || at < prev {
				merged[name] = at
			}
		}
	}
	out := make([]firstSeen, 0, len(merged))
	for name, at := range merged {
		out = append(out, firstSeen{name, at})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// buildSnapshotParallel is buildSnapshot sharded across `workers`
// goroutines. Output is byte-identical to the serial builder's: the symbol
// table is constructed by merging per-shard first-occurrence scans so
// codes land in the serial interning order, after which every fill runs
// lock-free over disjoint ranges against the then-immutable table.
func buildSnapshotParallel(g *Graph, workers int) *Snapshot {
	n := g.NumNodes()
	if n == 0 {
		return buildSnapshot(g)
	}
	s := &Snapshot{
		g:       g,
		syms:    NewSymbols(),
		labels:  make([]Sym, n),
		outOff:  make([]int32, n+1),
		inOff:   make([]int32, n+1),
		attrOff: make([]int32, n+1),
	}
	nodeShards := shardRanges(n, workers)

	// ---- count: per-shard degree and tuple counting ----------------------
	runShards(nodeShards, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			s.outOff[v+1] = int32(len(g.out[v]))
			s.inOff[v+1] = int32(len(g.in[v]))
			s.attrOff[v+1] = int32(len(g.attrs[v]))
		}
	})
	// ---- offset merge: serial prefix sums over the counts ----------------
	for v := 0; v < n; v++ {
		s.outOff[v+1] += s.outOff[v]
		s.inOff[v+1] += s.inOff[v]
		s.attrOff[v+1] += s.attrOff[v]
	}
	totalAttrs := int(s.attrOff[n])

	// ---- symbols: merged first-occurrence scans, serial interning --------
	// Node labels first (rank = NodeID), then edge labels (rank = global
	// out-edge index), then attribute names (sorted distinct), then values
	// (rank = arena position) — the serial builder's exact phase order, so
	// every code matches.
	for _, fs := range collectDistinct(nodeShards, func(lo, hi int, seen map[string]int64) {
		for v := lo; v < hi; v++ {
			if _, ok := seen[g.labels[v]]; !ok {
				seen[g.labels[v]] = int64(v)
			}
		}
	}) {
		s.syms.Intern(fs.name)
	}
	for _, fs := range collectDistinct(nodeShards, func(lo, hi int, seen map[string]int64) {
		for v := lo; v < hi; v++ {
			base := int64(s.outOff[v])
			for i := range g.out[v] {
				l := g.out[v][i].Label
				if _, ok := seen[l]; !ok {
					seen[l] = base + int64(i)
				}
			}
		}
	}) {
		s.syms.Intern(fs.name)
	}
	attrNames := collectDistinct(nodeShards, func(lo, hi int, seen map[string]int64) {
		for v := lo; v < hi; v++ {
			for k := range g.attrs[v] {
				if _, ok := seen[k]; !ok {
					seen[k] = 0
				}
			}
		}
	})
	sort.Slice(attrNames, func(i, j int) bool { return attrNames[i].name < attrNames[j].name })
	for _, fs := range attrNames {
		s.syms.Intern(fs.name)
	}
	// Sorted per-node key lists are needed twice (value ranking here, the
	// arena fill below); build them once into a shared arena.
	keyArena := make([]string, totalAttrs)
	for _, fs := range collectDistinct(nodeShards, func(lo, hi int, seen map[string]int64) {
		for v := lo; v < hi; v++ {
			a := g.attrs[v]
			if len(a) == 0 {
				continue
			}
			ks := keyArena[s.attrOff[v]:s.attrOff[v+1]]
			i := 0
			for k := range a {
				ks[i] = k
				i++
			}
			sort.Strings(ks)
			base := int64(s.attrOff[v])
			for ki, k := range ks {
				if _, ok := seen[a[k]]; !ok {
					seen[a[k]] = base + int64(ki)
				}
			}
		}
	}) {
		s.syms.Intern(fs.name)
	}

	// The table is complete and immutable for the rest of the build; fills
	// read it lock-free.
	codes := s.syms.view()

	// ---- node labels: the adjacency sort below orders by them ------------
	runShards(nodeShards, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			s.labels[v] = codes.code(g.labels[v])
		}
	})

	// ---- fill + sort: disjoint ranges, degree-balanced shards ------------
	s.out = make([]CSREdge, s.outOff[n])
	s.in = make([]CSREdge, s.inOff[n])
	s.attrPairs = make([]AttrPair, totalAttrs)
	runShards(shardByOffsets(workers, s.outOff), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := s.out[s.outOff[v]:s.outOff[v+1]]
			for i := range g.out[v] {
				row[i] = CSREdge{To: g.out[v][i].To, Label: codes.code(g.out[v][i].Label)}
			}
			sortCSR(row, s.labels)
		}
	})
	runShards(shardByOffsets(workers, s.inOff), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			row := s.in[s.inOff[v]:s.inOff[v+1]]
			for i := range g.in[v] {
				row[i] = CSREdge{To: g.in[v][i].To, Label: codes.code(g.in[v][i].Label)}
			}
			sortCSR(row, s.labels)
		}
	})
	runShards(shardByOffsets(workers, s.attrOff), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			a := g.attrs[v]
			if len(a) == 0 {
				continue
			}
			ks := keyArena[s.attrOff[v]:s.attrOff[v+1]]
			row := s.attrPairs[s.attrOff[v]:s.attrOff[v+1]]
			for i, k := range ks {
				row[i] = AttrPair{Name: codes.code(k), Val: codes.code(a[k])}
			}
			sortAttrPairs(row)
		}
	})

	// ---- classes: per-worker counts merged into offsets, cursor fills ----
	// Node-label codes were interned first, so they are bounded by a small
	// prefix of the table; per-worker count/cursor arrays size to that
	// prefix, not the full (value-heavy) namespace.
	maxLabel := Sym(0)
	for _, l := range s.labels {
		if l > maxLabel {
			maxLabel = l
		}
	}
	nl := int(maxLabel) + 1
	counts := make([][]int32, len(nodeShards))
	runShards(nodeShards, func(si, lo, hi int) {
		c := make([]int32, nl)
		for v := lo; v < hi; v++ {
			c[s.labels[v]]++
		}
		counts[si] = c
	})
	s.classOff = make([]int32, s.syms.Len()+1)
	for _, c := range counts {
		for l, k := range c {
			s.classOff[l+1] += k
		}
	}
	for i := 1; i < len(s.classOff); i++ {
		s.classOff[i] += s.classOff[i-1]
	}
	s.classes = make([]NodeID, n)
	starts := make([][]int32, len(nodeShards))
	run := make([]int32, nl)
	for si := range nodeShards {
		st := make([]int32, nl)
		for l := 0; l < nl; l++ {
			st[l] = s.classOff[l] + run[l]
		}
		starts[si] = st
		for l, k := range counts[si] {
			run[l] += k
		}
	}
	runShards(nodeShards, func(si, lo, hi int) {
		cur := starts[si]
		for v := lo; v < hi; v++ {
			l := s.labels[v]
			s.classes[cur[l]] = NodeID(v)
			cur[l]++
		}
	})
	return s
}
