package cluster

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunExecutesAllWorkers(t *testing.T) {
	for _, limit := range []int{0, 1, 3, 8, 20} {
		var hits int64
		seen := make([]bool, 8)
		busy, deaths := Fan(8, limit, func(w int) {
			atomic.AddInt64(&hits, 1)
			seen[w] = true
		})
		if hits != 8 || len(busy) != 8 || deaths != nil {
			t.Fatalf("limit %d: ran %d workers, %d busy times, deaths %v", limit, hits, len(busy), deaths)
		}
		for i, s := range seen {
			if !s {
				t.Errorf("limit %d: worker %d never ran", limit, i)
			}
		}
	}
}

// TestFanCapsConcurrency: no more than limit tasks run at once, and a
// slot's busy time starts when it gets its turn, not when it queued — so
// the busy times, each inside a turn, sum to at most limit × elapsed.
func TestFanCapsConcurrency(t *testing.T) {
	const limit = 2
	var running, peak atomic.Int64
	start := time.Now()
	busy, _ := Fan(6, limit, func(int) {
		now := running.Add(1)
		for {
			p := peak.Load()
			if now <= p || peak.CompareAndSwap(p, now) {
				break
			}
		}
		time.Sleep(5 * time.Millisecond)
		running.Add(-1)
	})
	elapsed := time.Since(start)
	if p := peak.Load(); p > limit {
		t.Errorf("peak concurrency %d, want ≤ %d", p, limit)
	}
	var sum time.Duration
	for w, b := range busy {
		if b < 5*time.Millisecond {
			t.Errorf("slot %d busy %v, shorter than its task", w, b)
		}
		sum += b
	}
	if sum > limit*elapsed {
		t.Errorf("busy times sum to %v over %v elapsed: they count queueing", sum, elapsed)
	}
	if MaxSpan(busy) < 5*time.Millisecond {
		t.Errorf("MaxSpan = %v", MaxSpan(busy))
	}
}

// TestFanRecoversDeaths: a panicking slot becomes a *WorkerError while the
// others finish, and its error unwraps to the panic value.
func TestFanRecoversDeaths(t *testing.T) {
	boom := errors.New("boom")
	var done atomic.Int64
	_, deaths := Fan(4, 0, func(w int) {
		if w == 2 {
			panic(boom)
		}
		done.Add(1)
	})
	if done.Load() != 3 {
		t.Errorf("%d survivors finished, want 3", done.Load())
	}
	if len(deaths) != 1 || deaths[0].Worker != 2 || deaths[0].Unit != -1 || !errors.Is(deaths[0], boom) || len(deaths[0].Stack) == 0 {
		t.Fatalf("deaths = %v", deaths)
	}
}

func TestShipAccounting(t *testing.T) {
	c := New(4)
	c.Ship(0, 1, 1000)
	c.Ship(2, 1, 500)
	c.Ship(3, Coordinator, 100)
	got := c.Counters()
	if got.Bytes != 1600 || got.Messages != 3 || got.MaxReceived != 1500 || got.Rounds != 0 {
		t.Errorf("counters = %+v", got)
	}
	c.Ship(1, Coordinator, 1450)
	if got := c.Counters().MaxReceived; got != 1550 {
		t.Errorf("the coordinator received 1550 bytes, MaxReceived = %d", got)
	}
}

func TestShipLocalIsFree(t *testing.T) {
	c := New(2)
	c.Ship(1, 1, 1<<20)
	if got := c.Counters(); got.Bytes != 0 || got.Messages != 0 {
		t.Error("local access must not be charged")
	}
}

// TestMaxReceivedCounters is the counter half of what the cost model
// reads: receivers within a round overlap (the max, not the sum), more
// data into the same receiver accumulates, and each EndRound counts one
// round. The arithmetic half is validate's TestModeledCommArithmetic.
func TestMaxReceivedCounters(t *testing.T) {
	c := New(2)
	c.Ship(0, 1, 500)
	c.EndRound()
	want := Counters{Bytes: 500, Messages: 1, Rounds: 1, MaxReceived: 500}
	if got := c.Counters(); got != want {
		t.Errorf("counters = %+v, want %+v", got, want)
	}
	// Parallel receivers: the max, not the sum.
	c.Ship(1, 0, 500)
	if got := c.Counters().MaxReceived; got != 500 {
		t.Errorf("parallel shipments must overlap: MaxReceived = %d", got)
	}
	// More data into the same receiver accumulates.
	c.Ship(0, 1, 500)
	if got := c.Counters().MaxReceived; got != 1000 {
		t.Errorf("same receiver must accumulate: MaxReceived = %d", got)
	}
	c.EndRound()
	if got := c.Counters().Rounds; got != 2 {
		t.Errorf("rounds = %d, want 2", got)
	}
}

func TestConcurrentShip(t *testing.T) {
	c := New(4)
	Fan(4, 0, func(w int) {
		for i := 0; i < 1000; i++ {
			c.Ship(w, (w+1)%4, 1)
		}
	})
	if got := c.Counters(); got.Bytes != 4000 || got.Messages != 4000 {
		t.Errorf("concurrent accounting lost shipments: %+v", got)
	}
}

func TestNClamped(t *testing.T) {
	if New(0).N() != 1 {
		t.Error("n must clamp to 1")
	}
}
