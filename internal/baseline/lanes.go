package baseline

import (
	"sync/atomic"

	"gfd/internal/cluster"
	"gfd/internal/validate"
)

// laneSink routes worker emissions onto per-worker sink lanes with one
// shared stop flag: the first refused emission latches stop, and every
// worker observes it at its next emit or stopped() probe. It is the
// baselines' unit-lane discipline — each worker owns lane w, so lane-aware
// sinks (CollectSink shards, PipeSink bounded lanes) see the same
// contention-free layout the native engines give them, instead of a
// callback adapter funneling every worker through lane 0.
type laneSink struct {
	sink validate.Sink
	stop atomic.Bool
}

func newLaneSink(sink validate.Sink) *laneSink { return &laneSink{sink: sink} }

// stopped reports whether any worker's emission was refused (or a worker
// latched stop for cancellation).
func (ls *laneSink) stopped() bool { return ls.stop.Load() }

// Emit delivers v on worker w's lane; false once the detection should
// stop. A nil sink accepts everything (timing-only runs).
func (ls *laneSink) Emit(w int, v validate.Violation) bool {
	if ls.stop.Load() {
		return false
	}
	if ls.sink != nil && !ls.sink.Emit(w, v) {
		ls.stop.Store(true)
		return false
	}
	return true
}

// partial converts the worker deaths of a baseline run into the error it
// returns: nil when no worker died, else a *validate.PartialError with one
// failure per death (Unit -1 — the baselines have no retryable unit
// granularity, so a dead worker's remaining work is not retried).
func partial(deaths []*cluster.WorkerError) error {
	if len(deaths) == 0 {
		return nil
	}
	failures := make([]validate.UnitFailure, len(deaths))
	for i, d := range deaths {
		failures[i] = validate.UnitFailure{Unit: -1, Group: -1, Attempts: 1, Err: d}
	}
	return &validate.PartialError{Failures: failures}
}
