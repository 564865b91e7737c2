package validate

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count returns to at most base,
// dumping stacks on timeout. The goroutines a test starts beside the sink
// exit asynchronously, so the check must tolerate a scheduling delay
// without tolerating a leak.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s", base, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipeSinkProducerErrorBeforeFirstEmission pins the shutdown path the
// distributed violation-return route relies on: an engine that fails
// before emitting anything (a bad manifest, a spawn refusal, a worker
// fleet that never handshakes) closes the sink with its channel still
// empty. Out must still close — the consumer's range loop must terminate
// so the error can be yielded — and no goroutine may outlive it.
func TestPipeSinkProducerErrorBeforeFirstEmission(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pipe := NewPipeSink(ctx, 4, 8)
	errEngine := errors.New("engine failed before first emission")
	done := make(chan error, 1)
	go func() {
		// The engine errors without ever calling Emit; the owner closes
		// the sink after the engine returns, exactly as the session's
		// iterator goroutine does.
		pipe.Close()
		done <- errEngine
	}()

	got := 0
	for range pipe.Out() {
		got++
	}
	if got != 0 {
		t.Fatalf("drained %d violations from an engine that emitted none", got)
	}
	if err := <-done; !errors.Is(err, errEngine) {
		t.Fatalf("engine error lost: %v", err)
	}
	waitGoroutines(t, before)
}

// TestPipeSinkProducerErrorAfterCancel is the same shutdown under a dead
// run context — the coordinator path when every worker process dies
// pre-assignment. Emit's contract after cancellation is that it cannot
// wedge: an Emit may still win the select race against a channel with
// buffer space, but emissions past the channel's bound must return
// promptly, dropping their violations, and Close must still close Out.
func TestPipeSinkProducerErrorAfterCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())

	const workers, buffer = 4, 1
	pipe := NewPipeSink(ctx, workers, buffer)
	cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 256; i++ {
			pipe.Emit(0, Violation{})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Emit blocked on a cancelled sink")
	}
	pipe.Close()
	held := 0
	for range pipe.Out() {
		// Post-cancel leftovers that won the select race are permitted;
		// the drain just has to terminate.
		held++
	}
	if held > (workers+1)*buffer {
		t.Fatalf("%d violations held, past the bound %d", held, (workers+1)*buffer)
	}
	waitGoroutines(t, before)
}

// TestPipeSinkAbandonedConsumerAfterError: the consumer saw the engine
// fail and never ranges Out at all (the iterator yields the error and
// returns). Close alone must leave nothing running: shutdown must not
// require a drain of what is still buffered.
func TestPipeSinkAbandonedConsumerAfterError(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	pipe := NewPipeSink(ctx, 2, 8)
	pipe.Emit(0, Violation{Rule: "r"})
	cancel() // consumer abandons: run context dies, Out is never ranged
	pipe.Close()
	waitGoroutines(t, before)
}

// TestPipeSinkStartsNoGoroutine: the sink is one channel; building it
// starts nothing that Close would have to stop.
func TestPipeSinkStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	pipe := NewPipeSink(context.Background(), 4, 8)
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("NewPipeSink started %d goroutines", after-before)
	}
	pipe.Close()
}

// TestPipeSinkHolds: with no consumer, one worker fills the whole channel,
// (workers + 1) × buffer violations, and its next Emit blocks until the
// run's context is cancelled, then returns without queueing.
func TestPipeSinkHolds(t *testing.T) {
	const workers, buffer = 3, 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pipe := NewPipeSink(ctx, workers, buffer)
	filled := make(chan struct{})
	go func() {
		for range (workers + 1) * buffer {
			pipe.Emit(0, Violation{Rule: "held"})
		}
		close(filled)
	}()
	select {
	case <-filled:
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatalf("an Emit blocked before %d violations were held", (workers+1)*buffer)
	}
	next := make(chan struct{})
	go func() { pipe.Emit(0, Violation{Rule: "past"}); close(next) }()
	select {
	case <-next:
		t.Fatal("Emit past the bound returned without blocking")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	select {
	case <-next:
	case <-time.After(5 * time.Second):
		t.Fatal("a blocked Emit did not unwind on cancel")
	}
	pipe.Close()
	held := 0
	for v := range pipe.Out() {
		if v.Rule != "held" {
			t.Fatal("Emit past the bound queued its violation after the cancel")
		}
		held++
	}
	if held != (workers+1)*buffer {
		t.Fatalf("%d violations held, want %d", held, (workers+1)*buffer)
	}
}

// callback is a sink that serializes emissions from concurrent workers
// onto yield under a mutex (testutil.Callback, which this package's own
// tests cannot import: testutil imports validate).
func callback(yield func(Violation)) Sink { return &callbackSink{yield: yield} }

type callbackSink struct {
	mu    sync.Mutex
	yield func(Violation)
}

func (s *callbackSink) Emit(_ int, v Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.yield(v)
}
