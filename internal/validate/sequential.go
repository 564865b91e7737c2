package validate

import (
	"context"

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
// it is found (unsorted), so the collect sink's lanes see one writer each.
//
// A cancelled context stops every worker and its error is returned; it
// reaches into candidate enumeration through the matcher's halt probe, so
// a stop lands mid-class even on matchless stretches. A panicking worker is
// recovered into a *cluster.WorkerError while the others finish their
// rules; the run then returns a *PartialError (Partial) listing every
// death.
func ScanRules(ctx context.Context, b *Bundle, rules []*core.GFD, n int, sink Sink) error {
	n = min(max(n, 1), max(len(rules), 1))
	view := b.topo
	_, deaths := cluster.Fan(n, 0, func(w int) {
		m := b.rules.plans.Get(view)
		cancel := &cancelCheck{ctx: ctx}
		for ri := w; ri < len(rules) && !cancel.canceled(); ri += n {
			f, p := rules[ri], b.Program(rules[ri])
			for h := range m.Matches(f.Q, match.Options{Halt: cancel.canceled, Guard: p.Guard()}) {
				if p.IsViolation(view, h) {
					sink.Emit(w, Violation{Rule: f.Name, Match: append(core.Match(nil), h...)})
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
