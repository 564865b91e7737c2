package fault

import (
	"sync"
	"testing"
	"time"
)

// recoverInjected runs fn and returns the Injected value it panicked with,
// or nil.
func recoverInjected(fn func()) (out *Injected) {
	defer func() {
		if r := recover(); r != nil {
			inj := r.(Injected)
			out = &inj
		}
	}()
	fn()
	return nil
}

func TestKillWorkerFiresOnOrdinal(t *testing.T) {
	in := NewPlan(1).KillWorker(2, 1).Arm(4)
	// Worker 2's first unit passes, the second panics; other workers never
	// trip it.
	if p := recoverInjected(func() { in.Cross(UnitStart, 0, 0) }); p != nil {
		t.Fatalf("worker 0 tripped a kill aimed at worker 2: %v", p)
	}
	if p := recoverInjected(func() { in.Cross(UnitStart, 2, 5) }); p != nil {
		t.Fatalf("kill fired on worker 2's first unit, want second: %v", p)
	}
	p := recoverInjected(func() { in.Cross(UnitStart, 2, 6) })
	if p == nil {
		t.Fatal("kill did not fire on worker 2's second unit")
	}
	if p.Worker != 2 || p.Unit != 6 || p.Site != UnitStart {
		t.Fatalf("injected value = %+v", p)
	}
	// Fires once: the next crossing is clean.
	if p := recoverInjected(func() { in.Cross(UnitStart, 2, 7) }); p != nil {
		t.Fatalf("kill fired twice: %v", p)
	}
	if in.Fired() != 1 {
		t.Fatalf("Fired() = %d, want 1", in.Fired())
	}
}

func TestPanicAtNthCrossing(t *testing.T) {
	in := NewPlan(1).PanicAt(Match, 3).Arm(2)
	for i := 0; i < 2; i++ {
		if p := recoverInjected(func() { in.Cross(Match, 0, 0) }); p != nil {
			t.Fatalf("panic fired at crossing %d, want 3", i+1)
		}
	}
	if p := recoverInjected(func() { in.Cross(Match, 1, 9) }); p == nil {
		t.Fatal("panic did not fire at the 3rd crossing")
	}
	if p := recoverInjected(func() { in.Cross(Match, 1, 9) }); p != nil {
		t.Fatal("panic fired twice")
	}
}

func TestDelayUnitFiresOnce(t *testing.T) {
	d := 30 * time.Millisecond
	in := NewPlan(1).DelayUnit(4, d).Arm(2)
	start := time.Now()
	in.Cross(UnitStart, 0, 4)
	if got := time.Since(start); got < d {
		t.Fatalf("first crossing of unit 4 slept %v, want >= %v", got, d)
	}
	start = time.Now()
	in.Cross(UnitStart, 1, 4) // retry: rule already fired
	if got := time.Since(start); got > d/2 {
		t.Fatalf("second crossing of unit 4 slept %v, want ~0", got)
	}
}

func TestNilAndEmptyPlansAreNoOps(t *testing.T) {
	var p *Plan
	if in := p.Arm(4); in != nil {
		t.Fatal("nil plan armed to a non-nil injector")
	}
	if in := NewPlan(9).Arm(4); in != nil {
		t.Fatal("empty plan armed to a non-nil injector")
	}
	var in *Injector
	in.Cross(Match, 0, 0) // must not panic
	if in.Fired() != 0 {
		t.Fatal("nil injector reports fired rules")
	}
}

// TestFatalCountsAttemptEndingFaults: every fault but a delay ends the
// attempt it fires in.
func TestFatalCountsAttemptEndingFaults(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Fatal() != 0 || NewPlan(1).DelayUnit(0, time.Millisecond).Fatal() != 0 {
		t.Fatal("a nil plan and a delay-only plan end no attempt")
	}
	p := NewPlan(2).KillWorker(0, 0).DelayUnit(1, time.Millisecond).PanicAt(Match, 3).
		KillProcess(1, 0).StallPipe(1, 2, time.Second).TruncateMessage(2, 0)
	if got := p.Fatal(); got != 5 {
		t.Fatalf("%v: Fatal = %d, want 5", p, got)
	}
}

func TestFromSeedIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		a, b := FromSeed(seed, 4, 100), FromSeed(seed, 4, 100)
		if a.String() != b.String() {
			t.Fatalf("seed %d: %s != %s", seed, a, b)
		}
		if a.Len() == 0 {
			t.Fatalf("seed %d: empty plan", seed)
		}
	}
	if FromSeed(1, 4, 100).String() == FromSeed(2, 4, 100).String() {
		t.Skip("seeds 1 and 2 collide (allowed, but suspicious)")
	}
}

// TestFromSeedLeavesASurvivor: a goroutine slot that panicked is never
// revived, so a recoverable plan ends at most workers−1 attempts — at one
// worker it holds delays only — and the cap leaves every plan for three or
// more workers as it was drawn before it existed.
func TestFromSeedLeavesASurvivor(t *testing.T) {
	for workers := 1; workers <= 4; workers++ {
		for seed := int64(1); seed <= 200; seed++ {
			if p := FromSeed(seed, workers, 100); p.Fatal() > workers-1 {
				t.Fatalf("FromSeed(%d, %d): %v ends %d attempts", seed, workers, p, p.Fatal())
			}
		}
	}
	for i, want := range []string{
		"fault.Plan{seed=1, panic(literal#8), panic(literal#2)}",
		"fault.Plan{seed=2, panic(match#29)}",
		"fault.Plan{seed=3, delay(u96,3ms)}",
		"fault.Plan{seed=4, kill(w1@unit#2), delay(u97,1ms)}",
		"fault.Plan{seed=5, kill(w1@unit#1)}",
		"fault.Plan{seed=6, panic(literal#9)}",
		"fault.Plan{seed=7, panic(match#46)}",
		"fault.Plan{seed=8, kill(w1@unit#1)}",
	} {
		if got := FromSeed(int64(i+1), 4, 100).String(); got != want {
			t.Errorf("FromSeed(%d, 4, 100) = %s, want %s", i+1, got, want)
		}
	}
}

func TestConcurrentCrossingsFireExactlyOnce(t *testing.T) {
	in := NewPlan(1).PanicAt(Ship, 500).Arm(8)
	var fired atomic32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if p := recoverInjected(func() { in.Cross(Ship, w, -1) }); p != nil {
					fired.add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := fired.load(); got != 1 {
		t.Fatalf("rule fired %d times across concurrent crossings, want 1", got)
	}
}

type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }
