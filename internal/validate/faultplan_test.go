package validate

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// emitter is an Executor whose every attempt emits n violations.
type emitter struct{ n int }

func (emitter) Start(int) error                     { return nil }
func (emitter) Superstep(func(int)) []time.Duration { return nil }
func (emitter) Close()                              {}
func (e emitter) Run(_ int, _ []int, _ func(int) int64, emit func(Violation)) error {
	for range e.n {
		emit(Violation{})
	}
	return nil
}

// recovered runs fn and returns what it panicked with, or nil.
func recovered(fn func()) (out any) {
	defer func() { out = recover() }()
	fn()
	return nil
}

// attempt runs one attempt of unit u on slot w of armed and reports the
// emissions that reached the sink and the panic, if any.
func attempt(armed Executor, w, u int) (emitted int, panicked any) {
	panicked = recovered(func() {
		armed.Run(w, []int{u}, func(int) int64 { return 0 }, func(Violation) { emitted++ })
	})
	return emitted, panicked
}

func TestKillWorkerFiresOnOrdinal(t *testing.T) {
	armed := NewFaultPlan(1).KillWorker(2, 1).arm(emitter{1}, 0)
	// Slot 2's first attempt passes, its second panics before any work;
	// other slots never trip it.
	if _, p := attempt(armed, 0, 0); p != nil {
		t.Fatalf("slot 0 tripped a kill aimed at slot 2: %v", p)
	}
	if _, p := attempt(armed, 2, 5); p != nil {
		t.Fatalf("kill fired on slot 2's first attempt, want its second: %v", p)
	}
	if n, p := attempt(armed, 2, 6); p == nil || n != 0 {
		t.Fatalf("slot 2's second attempt: %d emissions, panic %v; want a panic before any", n, p)
	}
	// Fires once: the next attempt is clean.
	if _, p := attempt(armed, 2, 7); p != nil {
		t.Fatalf("kill fired twice: %v", p)
	}
}

func TestPanicAtNthCrossing(t *testing.T) {
	armed := NewFaultPlan(1).PanicAt(3).arm(emitter{1}, 0)
	for i := 0; i < 2; i++ {
		if _, p := attempt(armed, 0, 0); p != nil {
			t.Fatalf("panic fired at emission %d, want 3", i+1)
		}
	}
	// The third emission reaches the sink, then panics.
	if n, p := attempt(armed, 1, 9); p == nil || n != 1 {
		t.Fatalf("third emission: %d delivered, panic %v; want 1 and a panic", n, p)
	}
	if _, p := attempt(armed, 1, 9); p != nil {
		t.Fatal("panic fired twice")
	}
}

func TestDelayUnitFiresOnce(t *testing.T) {
	d := 30 * time.Millisecond
	armed := NewFaultPlan(1).DelayUnit(4, d).arm(emitter{1}, 0)
	start := time.Now()
	attempt(armed, 0, 4)
	if got := time.Since(start); got < d {
		t.Fatalf("first attempt of unit 4 slept %v, want >= %v", got, d)
	}
	start = time.Now()
	attempt(armed, 1, 4) // the retry: the rule already fired
	if got := time.Since(start); got > d/2 {
		t.Fatalf("second attempt of unit 4 slept %v, want ~0", got)
	}
	// A delay that reaches the unit deadline abandons the attempt before
	// any work, as the cooperative deadline would; a shorter one does not.
	run := func(deadline time.Duration) (emitted int, err error) {
		armed := NewFaultPlan(1).DelayUnit(4, d).arm(emitter{1}, deadline)
		err = armed.Run(0, []int{4}, func(int) int64 { return 0 }, func(Violation) { emitted++ })
		return emitted, err
	}
	if n, err := run(d); n != 0 || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("delay %v at deadline %v: %d emissions, err %v; want none and a missed deadline", d, d, n, err)
	}
	if n, err := run(2 * d); n != 1 || err != nil {
		t.Fatalf("delay %v at deadline %v: %d emissions, err %v; want the attempt whole", d, 2*d, n, err)
	}
}

func TestNilAndEmptyPlansAreNoOps(t *testing.T) {
	var nilPlan *FaultPlan
	for _, p := range []*FaultPlan{nilPlan, NewFaultPlan(9)} {
		armed := p.arm(emitter{3}, 0)
		for w := range 3 {
			if n, panicked := attempt(armed, w, 0); n != 3 || panicked != nil {
				t.Fatalf("%v: slot %d delivered %d of 3, panic %v", p, w, n, panicked)
			}
		}
		if p.Encode() != "" || p.String() != "FaultPlan{}" {
			t.Fatalf("%v encodes to %q", p, p.Encode())
		}
	}
}

// TestFatalCountsAttemptEndingFaults: every fault but a delay ends the
// attempt it fires in.
func TestFatalCountsAttemptEndingFaults(t *testing.T) {
	var nilPlan *FaultPlan
	if nilPlan.Fatal() != 0 || NewFaultPlan(1).DelayUnit(0, time.Millisecond).Fatal() != 0 {
		t.Fatal("a nil plan and a delay-only plan end no attempt")
	}
	p := NewFaultPlan(2).KillWorker(0, 0).DelayUnit(1, time.Millisecond).PanicAt(3).
		KillProcess(1, 0).StallPipe(1, 2, time.Second).TruncateMessage(2, 0)
	if got := p.Fatal(); got != 5 {
		t.Fatalf("%v: Fatal = %d, want 5", p, got)
	}
}

func TestFromSeedIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := FromSeed(seed, 4, 100, 40), FromSeed(seed, 4, 100, 40)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s != %s", seed, a, b)
		}
		if a.Len() == 0 {
			t.Fatalf("seed %d: empty plan", seed)
		}
	}
	if FromSeed(1, 4, 100, 40).String() == FromSeed(2, 4, 100, 40).String() {
		t.Skip("seeds 1 and 2 collide (allowed, but suspicious)")
	}
}

// TestFromSeedLeavesASurvivor: a goroutine slot that panicked is never
// revived, so a recoverable plan ends at most workers−1 attempts — at one
// worker it holds delays only — and the cap leaves every plan for three or
// more workers as it was drawn before it existed. A panic's ordinal is
// drawn from the run's 40 violations, so every panic fires.
func TestFromSeedLeavesASurvivor(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		for seed := int64(1); seed <= 200; seed++ {
			if p := FromSeed(seed, workers, 100, 40); p.Fatal() > workers-1 {
				t.Fatalf("FromSeed(%d, %d): %v ends %d attempts", seed, workers, p, p.Fatal())
			}
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		if p := FromSeed(seed, 4, 100, 0); strings.Contains(p.String(), "panic") {
			t.Fatalf("FromSeed(%d, 4, 100, 0): %v panics in a run that emits nothing", seed, p)
		}
	}
	for i, want := range []string{
		"FaultPlan{seed=1, panic(emit#8), panic(emit#2)}",
		"FaultPlan{seed=2, panic(emit#13)}",
		"FaultPlan{seed=3, delay(u96,3ms)}",
		"FaultPlan{seed=4, kill(w1@unit#2), delay(u97,1ms)}",
		"FaultPlan{seed=5, kill(w1@unit#1)}",
		"FaultPlan{seed=6, panic(emit#9)}",
		"FaultPlan{seed=7, panic(emit#14)}",
		"FaultPlan{seed=8, kill(w1@unit#1)}",
	} {
		if got := FromSeed(int64(i+1), 4, 100, 40).String(); got != want {
			t.Errorf("FromSeed(%d, 4, 100, 40) = %s, want %s", i+1, got, want)
		}
	}
}

// TestConcurrentCrossingsFireExactlyOnce: eight slots emitting at once
// through one armed run trip a panic rule once.
func TestConcurrentCrossingsFireExactlyOnce(t *testing.T) {
	armed := NewFaultPlan(1).PanicAt(500).arm(emitter{1}, 0)
	var mu sync.Mutex
	fired := 0
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for range 200 {
				if _, p := attempt(armed, w, 0); p != nil {
					mu.Lock()
					fired++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("rule fired %d times across concurrent emissions, want 1", fired)
	}
}

// TestFaultPlanEncodeRoundTrip: the command-line encoding that ships a plan
// into worker processes reproduces every rule, the process ones included,
// and rejects garbage.
func TestFaultPlanEncodeRoundTrip(t *testing.T) {
	p := NewFaultPlan(99).
		KillProcess(1, 2).
		StallPipe(0, 4, 30*time.Second).
		TruncateMessage(3, 1).
		DelayUnit(7, 2*time.Millisecond).
		KillWorker(2, 0).
		PanicAt(5)
	enc := p.Encode()
	q, err := DecodePlan(enc)
	if err != nil {
		t.Fatalf("decoding %q: %v", enc, err)
	}
	if q.Encode() != enc || q.String() != p.String() {
		t.Fatalf("re-encode diverged:\n%q\n%q", enc, q.Encode())
	}
	if got, err := DecodePlan(""); got != nil || err != nil {
		t.Fatalf("empty encoding: %v, %v", got, err)
	}
	for _, bad := range []string{"v2;seed=1", "v1;seed=x", "v1;seed=1;bogus,1", "v1;seed=1;kill,1", "v1;panic,1,2"} {
		if _, err := DecodePlan(bad); err == nil {
			t.Fatalf("decoding %q succeeded", bad)
		}
	}
}

// FuzzDecodePlan feeds arbitrary strings to the decoder a worker process
// runs on its command line: it must return a plan or an error, never
// panic; a decoded plan holds at most one rule per field and re-encodes to
// a fixed point.
func FuzzDecodePlan(f *testing.F) {
	f.Add(NewFaultPlan(99).KillProcess(1, 2).StallPipe(0, 4, 30*time.Second).TruncateMessage(3, 1).
		DelayUnit(7, 2*time.Millisecond).KillWorker(2, 0).PanicAt(5).Encode())
	f.Add("")
	f.Add("v1;seed=1")
	f.Add("v1;seed=1;kill,1")
	f.Add("v1;panic,255,1;stall,-1,-1,-1")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := DecodePlan(s)
		if err != nil {
			return
		}
		if p.Len() > strings.Count(s, ";") {
			t.Fatalf("%d rules decoded from %q", p.Len(), s)
		}
		enc := p.Encode()
		q, err := DecodePlan(enc)
		if err != nil {
			t.Fatalf("re-decoding %q (from %q): %v", enc, s, err)
		}
		if q.Encode() != enc {
			t.Fatalf("encoding of %q is not a fixed point: %q then %q", s, enc, q.Encode())
		}
		_ = p.String()
		_ = p.Fatal()
	})
}
