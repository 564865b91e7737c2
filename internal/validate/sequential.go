package validate

import (
	"context"

	"gfd/internal/core"
	"gfd/internal/match"
)

// DetVioB is the sequential error-detection algorithm of Section 5.1 over
// a prepared bundle: it pulls matches of each rule's pattern from the
// matcher's lazy iterator, checks the compiled X → Y program on each, and
// delivers violations to the sink without materializing a report — match
// enumeration, literal checking and emission are one fused stream. Rules
// whose patterns share a connected core run factorized (factor.go): the
// shared prefix is enumerated once and each rule branches at its
// divergence point with the core image pinned, so multi-rule groups stop
// re-walking identical search-tree prefixes per rule. The violation set is
// exactly DetVioPerRuleB's; only the delivery order differs (interleaved
// by group rather than strictly rule-by-rule). Enumeration stops when the
// sink refuses a violation (no error) or the context is cancelled (the
// context's error is returned); both propagate into candidate enumeration
// through the matcher's halt probe, so a stop lands mid-class even on
// matchless stretches. A nil sink collects nothing (useful only for its
// side-effect timing) — callers wanting a report pass a CollectSink. It is
// the correctness reference for the parallel engines, and exponential in
// the worst case (Exp-1: detVio does not terminate within 6000s on the
// paper's large graphs — bound it with the context).
//
// A panic during enumeration or literal evaluation is recovered into the
// returned error (a *cluster.WorkerError) — there is only one execution
// stream here, so there is nothing to retry, but the caller's process
// survives.
func DetVioB(ctx context.Context, b *Bundle, sink Sink) (err error) {
	defer engineRecover(&err)
	return detVioFactored(ctx, b, sink)
}

// DetVioPerRuleB is DetVioB without the factorized shared-core driver:
// every rule enumerates its own pattern from scratch, in rule order. It is
// the reference (and ablation benchmark) for the factorized path; the two
// produce identical violation sets.
func DetVioPerRuleB(ctx context.Context, b *Bundle, sink Sink) (err error) {
	defer engineRecover(&err)
	topo := b.topo
	m := match.NewMatcher(topo)
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
			if p.IsViolation(topo, h) {
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
