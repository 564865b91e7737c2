package validate

import (
	"context"

	"gfd/internal/core"
	"gfd/internal/match"
)

// DetVioB is the sequential error-detection algorithm of Section 5.1 over
// a prepared bundle: rule by rule, in rule order, it pulls matches of the
// rule's pattern from the matcher's lazy iterator (guarded by the rule's X),
// checks the compiled X → Y program on each, and delivers violations to the
// sink without materializing a report — match enumeration, literal checking
// and emission are one fused stream. Enumeration stops when the sink
// refuses a violation (no error) or the context is cancelled (the context's
// error is returned); both propagate into candidate enumeration through the
// matcher's halt probe, so a stop lands mid-class even on matchless
// stretches. A nil sink collects nothing (useful only for its side-effect
// timing) — callers wanting a report pass a CollectSink. It is exponential
// in the worst case (Exp-1: detVio does not terminate within 6000s on the
// paper's large graphs — bound it with the context).
//
// A panic during enumeration or literal evaluation is recovered into the
// returned error (a *cluster.WorkerError) — there is only one execution
// stream here, so there is nothing to retry, but the caller's process
// survives.
func DetVioB(ctx context.Context, b *Bundle, sink Sink) (err error) {
	defer engineRecover(&err)
	view := b.topo
	m := match.NewMatcher(view)
	cancel := &cancelCheck{ctx: ctx}
	opts := match.Options{Halt: cancel.canceled}
	for _, f := range b.set.Rules() {
		p := b.Program(f)
		opts.Guard = p.Guard()
		stopped := false
		for h := range m.Matches(f.Q, opts) {
			if cancel.canceled() {
				break
			}
			if p.IsViolation(view, h) {
				if sink != nil && !sink.Emit(0, Violation{Rule: f.Name, Match: append(core.Match(nil), h...)}) {
					stopped = true
					break
				}
			}
		}
		if cancel.hit {
			return ctx.Err()
		}
		if stopped {
			return nil
		}
	}
	return nil
}
