package validate

import (
	"context"
	"sync/atomic"

	"gfd/internal/cluster"
	"gfd/internal/core"
	"gfd/internal/match"
)

// DetVioB is the sequential error-detection algorithm of Section 5.1 over
// a prepared bundle: ScanRules over the bundle's rules with one worker, so
// rule by rule, in rule order. It is exponential in the worst case (Exp-1:
// detVio does not terminate within 6000s on the paper's large graphs —
// bound it with the context).
func DetVioB(ctx context.Context, b *Bundle, sink Sink) error {
	return ScanRules(ctx, b, b.Set().Rules(), 1, sink)
}

// ScanRules is the one rule-at-a-time scan, which detVio (DetVioB) and the
// GCFD baseline (baseline.DetectB) run: n workers (clamped to [1,
// len(rules)]) take rules round-robin, each with a matcher from Bundle.Plans.
// A worker pulls a rule's matches lazily, with the rule's X pushed into the
// search as its guard, decides each with the rule's literal program
// (Bundle.Program) and emits a violation on its own sink lane w as soon as
// it is found (unsorted). A nil sink collects nothing.
//
// One refused emission stops every worker, and so does a cancelled
// context, whose error is returned; both reach into candidate enumeration
// through the matcher's halt probe, so a stop lands mid-class even on
// matchless stretches. A panicking worker is recovered into a
// *cluster.WorkerError while the others finish their rules; the run then
// returns a *PartialError (Partial) listing every death.
func ScanRules(ctx context.Context, b *Bundle, rules []*core.GFD, n int, sink Sink) error {
	n = min(max(n, 1), max(len(rules), 1))
	view := b.topo
	ls := NewLaneSink(sink)
	_, deaths := cluster.Fan(n, 0, func(w int) {
		m := b.rules.plans.Get(view)
		cancel := &cancelCheck{ctx: ctx}
		halt := func() bool { return ls.Stopped() || cancel.canceled() }
	scan:
		for ri := w; ri < len(rules) && !halt(); ri += n {
			f, p := rules[ri], b.Program(rules[ri])
			for h := range m.Matches(f.Q, match.Options{Halt: halt, Guard: p.Guard()}) {
				if p.IsViolation(view, h) && !ls.Emit(w, Violation{Rule: f.Name, Match: append(core.Match(nil), h...)}) {
					break scan
				}
			}
		}
		b.rules.plans.Put(m) // not deferred: a panicking worker's matcher is dropped
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	return Partial(deaths)
}

// LaneSink routes worker emissions onto per-worker sink lanes with one
// shared stop flag: the first refused emission latches stop, which every
// worker sees at its next Emit or Stopped probe. ScanRules, the unit
// scheduler and the BigDansing baseline emit through it. Each worker owns
// lane w, so the collect sink's lanes see one writer each. A nil sink
// accepts everything.
type LaneSink struct {
	sink Sink
	stop atomic.Bool
}

// NewLaneSink wraps sink.
func NewLaneSink(sink Sink) *LaneSink { return &LaneSink{sink: sink} }

// Stopped reports whether an emission was refused.
func (ls *LaneSink) Stopped() bool { return ls.stop.Load() }

// Emit delivers v on worker w's lane; false once the run should stop.
func (ls *LaneSink) Emit(w int, v Violation) bool {
	if ls.stop.Load() {
		return false
	}
	if ls.sink != nil && !ls.sink.Emit(w, v) {
		ls.stop.Store(true)
		return false
	}
	return true
}

// Partial converts the worker deaths of a run without work units
// (ScanRules, the BigDansing join pipeline) into its error: nil when no
// worker died, else a *PartialError with one failure per death, Unit -1,
// since a dead worker's remaining work is not retried.
func Partial(deaths []*cluster.WorkerError) error {
	if len(deaths) == 0 {
		return nil
	}
	failures := make([]UnitFailure, len(deaths))
	for i, d := range deaths {
		failures[i] = UnitFailure{Unit: -1, Group: -1, Attempts: 1, Err: d}
	}
	return &PartialError{Failures: failures}
}
