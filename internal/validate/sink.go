package validate

import (
	"context"
	"runtime"
	"sync"
	"time"

	"gfd/internal/cluster"
	"gfd/internal/graph"
)

// Sink is the single violation-consumption abstraction every engine emits
// through: detVio, repVal, disVal and the two baselines all deliver each
// violation to Emit as it is found, fused with match enumeration — no
// engine materializes a per-unit match set first. The session API's two
// execution modes are two sinks over one engine code path, and any caller
// may implement Sink itself:
//
//   - CollectSink — Detect: per-worker lanes appended lock-free, in
//     chunks that never regrow; after the run each lane sorts its own
//     violations in parallel, and one merge writes the sorted Report,
//     whose matches borrow the lanes' chunks;
//   - PipeSink — the pull-based iterator (Prepared.Violations): every
//     worker sends into one bounded channel the consumer ranges over, and
//     a full channel blocks the senders.
//
// Emit may be called from concurrent workers; worker identifies the
// calling lane (single-threaded engines pass 0). Emit never refuses: the
// one stop signal is the run's context. The engines probe it at strided
// checkpoints down into match enumeration itself (match.Options.Halt), so
// a consumer that has seen enough cancels the context and the search stops
// mid-class, not at the next unit boundary.
type Sink interface {
	Emit(worker int, v Violation)
}

// CollectSink accumulates violations into per-worker lanes so parallel
// engines append without synchronization. Each violation is written once,
// into its lane's last chunk, and never moves: its rule name's index in
// the lane's name table, its match's length, then the match. A full
// chunk is never copied; the next one is twice its size, up to maxChunk
// words. Report and the collect mode's sorted Report (orCollect) borrow
// every match from the chunks, capped so that appending to one cannot
// reach another.
type CollectSink struct {
	lanes []lane
}

// Chunk sizes of a lane, in words: the first holds firstChunk, each next
// one twice its predecessor, up to maxChunk (or one match's words, if
// more). A lane that collects little allocates little.
const (
	firstChunk = 64
	maxChunk   = 4096
)

// lane is one worker's violations, in emission order, in chunks that are
// never regrown; a violation never straddles two.
type lane struct {
	rules  headTable
	chunks [][]graph.NodeID // in order; the last is being filled
	n      int              // violations
	maxID  uint32           // the largest ID, as uint32 (a negative one is large)
	_      [64]byte         // workers append to neighbouring lanes: no shared cache line
}

// NewCollectSink returns a collect sink with capacity for workers lanes
// (at least one).
func NewCollectSink(workers int) *CollectSink {
	if workers < 1 {
		workers = 1
	}
	return &CollectSink{lanes: make([]lane, workers)}
}

// Emit appends v to the worker's lane, copying its match. Workers own
// their lane for the duration of a run: lane w is written only by slot
// w's task, whichever unit it runs, and successive supersteps are ordered
// by the barrier between them.
func (s *CollectSink) Emit(worker int, v Violation) {
	if worker < 0 || worker >= len(s.lanes) {
		worker = 0
	}
	l := &s.lanes[worker]
	last := len(l.chunks) - 1
	if need := 2 + len(v.Match); last < 0 || cap(l.chunks[last])-len(l.chunks[last]) < need {
		l.grow(need)
		last++
	}
	ch := append(l.chunks[last], graph.NodeID(l.rules.of(v.Rule)), graph.NodeID(len(v.Match)))
	l.chunks[last] = append(ch, v.Match...)
	l.n++
	for _, id := range v.Match {
		l.maxID = max(l.maxID, uint32(id))
	}
}

// grow starts a chunk with room for need words.
func (l *lane) grow(need int) {
	size := firstChunk
	if k := len(l.chunks); k > 0 {
		size = min(2*cap(l.chunks[k-1]), maxChunk)
	}
	l.chunks = append(l.chunks, make([]graph.NodeID, 0, max(size, need)))
}

// walk calls fn with where each of the lane's violations lives (its chunk
// c and offset i), in emission order.
func (l *lane) walk(fn func(keyed)) {
	for c, ch := range l.chunks {
		for i := 0; i < len(ch); i += 2 + int(ch[i+1]) {
			fn(keyed{c: uint32(c), i: uint32(i)})
		}
	}
}

// at is the violation k names, its match borrowed from the chunk.
func (l *lane) at(k keyed) Violation {
	ch := l.chunks[k.c]
	v := Violation{Rule: l.rules.names[ch[k.i]]}
	if n := ch[k.i+1]; n > 0 {
		lo, hi := k.i+2, k.i+2+uint32(n)
		v.Match = ch[lo:hi:hi]
	}
	return v
}

// Report returns the union of the lanes in worker order (unsorted; the
// engines sort canonically once at the end of a run).
func (s *CollectSink) Report() Report {
	n := 0
	for li := range s.lanes {
		n += s.lanes[li].n
	}
	out := make(Report, 0, n)
	for li := range s.lanes {
		l := &s.lanes[li]
		l.walk(func(k keyed) { out = append(out, l.at(k)) })
	}
	return out
}

// sorted returns the union of the lanes in Report.Sort's order: one keyer
// over every lane's rule names (one rank per distinct name), then each lane
// keys and sorts its own violations on its own slot, and one merge of the
// sorted lanes writes the Report.
func (s *CollectSink) sorted() Report {
	var names []string
	var maxID uint32
	base, runs := make([]int, len(s.lanes)), make([][]keyed, len(s.lanes))
	n := 0
	for li := range s.lanes {
		l := &s.lanes[li]
		base[li], n = len(names), n+l.n
		names, maxID = append(names, l.rules.names...), max(maxID, l.maxID)
	}
	kr, ks := newKeyer(names, maxID), make([]keyed, n)
	for li := range s.lanes {
		runs[li], ks = ks[:s.lanes[li].n:s.lanes[li].n], ks[s.lanes[li].n:]
	}
	_, deaths := cluster.Fan(len(s.lanes), runtime.GOMAXPROCS(0), func(li int) {
		l, run := &s.lanes[li], runs[li][:0]
		l.walk(func(k keyed) {
			ch := l.chunks[k.c]
			k.key = kr.key(base[li]+int(ch[k.i]), ch[k.i+2:k.i+2+uint32(ch[k.i+1])])
			run = append(run, k)
		})
		sortKeyed(run, l.at)
	})
	if len(deaths) > 0 { // a sort that panics is a bug: raise it here
		panic(deaths[0])
	}
	out := make(Report, n)
	for p := range out {
		best := -1
		for li, run := range runs {
			if len(run) == 0 {
				continue
			}
			if best >= 0 {
				if a, b := run[0], runs[best][0]; a.key > b.key || a.key == b.key && compareViolations(s.lanes[li].at(a), s.lanes[best].at(b)) >= 0 {
					continue
				}
			}
			best = li
		}
		out[p] = s.lanes[best].at(runs[best][0])
		runs[best] = runs[best][1:]
	}
	return out
}

// orCollect resolves the sink an engine emits into: the caller's, or — for
// a nil sink, the collect mode — a CollectSink with one lane per worker,
// with finish building res.Violations from its lanes after the run, sorted
// by rule name, then node IDs (per-lane sorts, one merge, matches borrowed).
// The modes of every engine differ only in the sink.
func orCollect(sink Sink, lanes int, res *Result) (_ Sink, finish func()) {
	if sink != nil {
		return sink, func() {}
	}
	collect := NewCollectSink(lanes)
	return collect, func() { res.Violations = collect.sorted() }
}

// Single wraps the engines that do not plan work units (sequential and the
// baselines, which run above this package) in the shape the parallel
// engines return: wall time, rule count, and — when no external sink was
// supplied — the collected, sorted violation set. With an external sink
// they emit straight into it over the very same code path.
func Single(rules, lanes int, sink Sink, run func(Sink) error) (*Result, error) {
	res := &Result{Rules: rules}
	sink, finish := orCollect(sink, lanes, res)
	start := time.Now()
	err := run(sink)
	res.Wall = time.Since(start)
	finish()
	return res, err
}

// PipeSink is the asynchronous half of the pull-based violation pipeline:
// one bounded channel that every worker sends into and the consumer ranges
// over (Out). A full channel blocks the senders — the backpressure that
// bounds the pipeline's memory — and never serializes emissions behind a
// mutex. The sink is bound to the run's context: once it is cancelled —
// the consumer broke out of the loop, or the caller's context died — every
// blocked Emit unwinds immediately and drops its violation, so no worker
// can wedge on a full channel.
//
// Lifecycle: the engine owner calls Close after the engine returns; a range
// over Out then ends once it has taken what is buffered. The sink starts no
// goroutine.
type PipeSink struct {
	ctx  context.Context
	out  chan Violation
	once sync.Once
}

// NewPipeSink builds a pipe sink for workers emitting slots. Its channel
// holds (workers + 1) × buffer violations (buffer is DefaultStreamBuffer
// when <= 0): room for buffer violations per emitting slot, and for one
// more buffer that absorbs a burst while the consumer catches up.
func NewPipeSink(ctx context.Context, workers, buffer int) *PipeSink {
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	return &PipeSink{ctx: ctx, out: make(chan Violation, (max(workers, 1)+1)*buffer)}
}

// Emit queues v, blocking while the channel is full; once the run's
// context is cancelled it drops v instead.
func (p *PipeSink) Emit(_ int, v Violation) {
	select {
	case p.out <- v:
	case <-p.ctx.Done():
	}
}

// Close closes Out; call it after the producing engine has returned.
// Idempotent.
func (p *PipeSink) Close() { p.once.Do(func() { close(p.out) }) }

// Out is the violation stream. It ends after Close once every buffered
// violation has been taken.
func (p *PipeSink) Out() <-chan Violation { return p.out }
