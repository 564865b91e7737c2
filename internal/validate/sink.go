package validate

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"gfd/internal/core"
	"gfd/internal/graph"
)

// Sink is the single violation-consumption abstraction every engine emits
// through: detVio, repVal, disVal and the two baselines all deliver each
// violation to Emit as it is found, fused with match enumeration — no
// engine materializes a per-unit match set first. The three execution
// modes of the session API are three sinks over one engine code path:
//
//   - CollectSink — Detect: per-worker flat lanes appended lock-free; the
//     sorted Report is built from them once, after the run;
//   - CallbackSink — emissions serialized onto one user function under a
//     mutex;
//   - PipeSink — the pull-based iterator (Prepared.Violations): each
//     worker owns a bounded lane, a fan-in merger feeds the consumer, and
//     a full lane applies backpressure to that worker alone.
//
// Emit may be called from concurrent workers; worker identifies the
// calling lane (single-threaded engines pass 0). Returning false tells
// the engine to stop: the refusal propagates through the per-worker
// cancel probes into match enumeration itself (match.Options.Halt), so a
// consumer that has seen enough stops the search mid-class, not at the
// next unit boundary.
type Sink interface {
	Emit(worker int, v Violation) bool
}

// CollectSink accumulates violations into per-worker lanes so parallel
// engines append without synchronization. A lane is flat and pointer-free
// but for its few rule names: per violation a head index (rule name and
// whether the match is empty) and an offset into one ID arena the match is
// copied into. Report unions the lanes in worker order; the collect mode
// builds its sorted Report straight from them (orCollect). Emit never
// refuses.
type CollectSink struct {
	lanes []lane
}

type lane struct {
	heads headTable
	head  []uint32       // per violation: its index in heads
	off   []uint32       // per violation: where its match starts in ids
	ids   []graph.NodeID // the matches, end to end
	maxID uint32         // the largest ID, as uint32 (a negative one is large)
	_     [64]byte       // workers append to neighbouring lanes: no shared cache line
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
// their lane for the duration of a run; cross-round ownership transfer is
// sequenced by the scheduler's superstep barrier.
func (s *CollectSink) Emit(worker int, v Violation) bool {
	if worker < 0 || worker >= len(s.lanes) {
		worker = 0
	}
	l := &s.lanes[worker]
	l.head = append(l.head, uint32(l.heads.of(v)))
	l.off = append(l.off, uint32(len(l.ids)))
	l.ids = append(l.ids, v.Match...)
	for _, id := range v.Match {
		l.maxID = max(l.maxID, uint32(id))
	}
	return true
}

// Report returns the union of the lanes in worker order (unsorted; the
// engines sort canonically once at the end of a run).
func (s *CollectSink) Report() Report {
	ks, _, _ := s.keyed()
	return s.write(ks)
}

// sorted returns the union of the lanes in Key() order.
func (s *CollectSink) sorted() Report {
	ks, heads, maxID := s.keyed()
	sortKeyed(ks, heads, maxID, s.at)
	return s.write(ks)
}

// keyed lists the lanes' violations in worker order, each keyed by its
// index in heads, every lane's table end to end.
func (s *CollectSink) keyed() (ks []keyed, heads []head, maxID uint32) {
	n := 0
	for li := range s.lanes {
		n += len(s.lanes[li].head)
	}
	ks = make([]keyed, 0, n)
	for li := range s.lanes {
		l := &s.lanes[li]
		for i, h := range l.head {
			ks = append(ks, keyed{key: uint64(len(heads)) + uint64(h), src: uint32(li), i: uint32(i)})
		}
		heads, maxID = append(heads, l.heads.heads...), max(maxID, l.maxID)
	}
	return ks, heads, maxID
}

// at is the violation k names (src is its lane), its match borrowed from
// the lane's arena.
func (s *CollectSink) at(k keyed) Violation {
	l := &s.lanes[k.src]
	end := len(l.ids)
	if int(k.i)+1 < len(l.off) {
		end = int(l.off[k.i+1])
	}
	return Violation{Rule: l.heads.heads[l.head[k.i]].rule, Match: l.ids[l.off[k.i]:end]}
}

// write materializes the violations ks names, in that order, with every
// match in one fresh arena, capped so that appending to one cannot reach
// the next.
func (s *CollectSink) write(ks []keyed) Report {
	total := 0
	for li := range s.lanes {
		total += len(s.lanes[li].ids)
	}
	out := make(Report, len(ks))
	arena := make(core.Match, total)
	for p, k := range ks {
		v := s.at(k)
		n := copy(arena, v.Match)
		v.Match = nil
		if n > 0 {
			v.Match, arena = arena[:n:n], arena[n:]
		}
		out[p] = v
	}
	return out
}

// orCollect resolves the sink an engine emits into: the caller's, or — for
// a nil sink, the collect mode — a CollectSink with one lane per worker,
// with finish building the canonically sorted res.Violations from its
// lanes after the run. The modes of every engine differ only in the sink.
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

// CallbackSink serializes violation emissions from concurrent workers
// onto one user callback. Once the callback returns false every worker's
// next Emit fails, stopping the engines.
type CallbackSink struct {
	mu      sync.Mutex
	yield   func(Violation) bool
	stopped atomic.Bool
}

// Callback wraps a yield function as a Sink.
func Callback(yield func(Violation) bool) *CallbackSink {
	return &CallbackSink{yield: yield}
}

// Emit delivers v to the callback under the sink's mutex.
func (s *CallbackSink) Emit(_ int, v Violation) bool {
	if s.stopped.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped.Load() {
		return false
	}
	if !s.yield(v) {
		s.stopped.Store(true)
		return false
	}
	return true
}

// PipeSink is the asynchronous half of the pull-based violation pipeline:
// every worker emits into its own bounded lane (backpressure is per
// worker — a slow consumer stalls only the workers that outran it, and
// never serializes emissions behind a global mutex), per-lane forwarders
// fan in to one merged channel, and the consumer ranges over Out. The
// sink is bound to the run's context: once it is cancelled — the consumer
// broke out of the loop, or the caller's context died — every blocked
// Emit unwinds immediately and returns false, so no worker can wedge on a
// full lane.
//
// Lifecycle: NewPipeSink starts the forwarders; the engine owner calls
// Close after the engine returns (closing the lanes); Out closes once
// every lane has drained. Consumers must drain Out to completion (the
// iterator in the session layer does) — after cancellation the remaining
// buffered violations are discarded by the forwarders themselves, so the
// drain is prompt.
type PipeSink struct {
	ctx   context.Context
	lanes []chan Violation
	out   chan Violation
	wg    sync.WaitGroup
	once  sync.Once
}

// NewPipeSink builds a pipe sink with one lane per worker, each buffering
// up to buffer violations (DefaultStreamBuffer when <= 0).
func NewPipeSink(ctx context.Context, workers, buffer int) *PipeSink {
	if workers < 1 {
		workers = 1
	}
	if buffer <= 0 {
		buffer = DefaultStreamBuffer
	}
	p := &PipeSink{
		ctx:   ctx,
		lanes: make([]chan Violation, workers),
		out:   make(chan Violation, buffer),
	}
	for i := range p.lanes {
		p.lanes[i] = make(chan Violation, buffer)
		p.wg.Add(1)
		go p.forward(p.lanes[i])
	}
	go func() {
		p.wg.Wait()
		close(p.out)
	}()
	return p
}

// forward drains one lane into the merged output until the lane closes.
// On context cancellation it keeps consuming (and discarding) the lane so
// Close's lane close is never blocked on a dead consumer.
func (p *PipeSink) forward(lane <-chan Violation) {
	defer p.wg.Done()
	for v := range lane {
		select {
		case p.out <- v:
		case <-p.ctx.Done():
			for range lane { // discard the rest; Emit stops refilling
			}
			return
		}
	}
}

// Emit queues v on the worker's lane, blocking while the lane is full —
// the backpressure that bounds the pipeline's memory — and failing once
// the run's context is cancelled.
func (p *PipeSink) Emit(worker int, v Violation) bool {
	if worker < 0 || worker >= len(p.lanes) {
		worker = 0
	}
	select {
	case p.lanes[worker] <- v:
		return true
	case <-p.ctx.Done():
		return false
	}
}

// Close closes the lanes; call exactly once, after the producing engine
// has returned. Out closes once the forwarders drain.
func (p *PipeSink) Close() {
	p.once.Do(func() {
		for _, lane := range p.lanes {
			close(lane)
		}
	})
}

// Out is the merged violation stream. It closes after Close once every
// buffered violation has been delivered (or discarded post-cancel).
func (p *PipeSink) Out() <-chan Violation { return p.out }
