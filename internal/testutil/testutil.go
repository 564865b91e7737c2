// Package testutil holds the helpers that the test files of several
// packages share: the multi-process runtime's own tests (internal/dist) and
// the conformance suite in internal/validate's test binary both stop a pull
// consumer early and check that a run leaves no goroutine or worker process
// behind, and several drive engines through a callback sink. Only test files import it, so no binary links it; the
// architecture rules hold it to that.
package testutil

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gfd/internal/validate"
)

// StopAfterFirst is a pull consumer that has seen enough: a pipe sink of
// one-violation buffers for workers slots, whose consumer takes the first
// violation and cancels the returned context. Nothing else is drained
// until taken, called after the engine returns, closes the pipe and
// returns the first violation and what the pipe still held.
func StopAfterFirst(parent context.Context, workers int) (context.Context, validate.Sink, func() validate.Report) {
	ctx, cancel := context.WithCancel(parent)
	pipe := validate.NewPipeSink(ctx, workers, 1)
	first := make(chan validate.Violation, 1)
	go func() {
		defer cancel()
		defer close(first)
		if v, ok := <-pipe.Out(); ok {
			first <- v
		}
	}()
	return ctx, pipe, func() validate.Report {
		pipe.Close()
		var got validate.Report
		for v := range first {
			got = append(got, v)
		}
		for v := range pipe.Out() {
			got = append(got, v)
		}
		return got
	}
}

// Callback is a sink that serializes emissions from concurrent workers
// onto yield under a mutex.
func Callback(yield func(validate.Violation)) validate.Sink {
	return &callback{yield: yield}
}

type callback struct {
	mu    sync.Mutex
	yield func(validate.Violation)
}

func (s *callback) Emit(_ int, v validate.Violation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.yield(v)
}

// PipeHolds is how many violations StopAfterFirst's pipe buffers for
// workers slots (NewPipeSink's (workers + 1) × buffer, buffer 1).
func PipeHolds(workers int) int { return workers + 1 }

// RequireSettled fails unless the goroutine count returns to its pre-run
// level and this process has no child left — running or zombie.
func RequireSettled(t testing.TB, goroutinesBefore int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		kids := childProcesses()
		if runtime.NumGoroutine() <= goroutinesBefore && len(kids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("leak: %d goroutines (was %d), child processes %v\n%s",
				runtime.NumGoroutine(), goroutinesBefore, kids, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// childProcesses lists the PIDs whose parent is this process (Linux procfs;
// elsewhere the check is skipped by returning nothing).
func childProcesses() []int {
	stats, _ := filepath.Glob("/proc/[0-9]*/stat")
	me := strconv.Itoa(os.Getpid())
	var kids []int
	for _, path := range stats {
		b, err := os.ReadFile(path)
		if err != nil {
			continue // exited between the glob and the read
		}
		// pid (comm) state ppid ...; comm may contain spaces, so split after ')'.
		rest := string(b[strings.LastIndexByte(string(b), ')')+1:])
		fields := strings.Fields(rest)
		if len(fields) >= 2 && fields[1] == me {
			pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(path)))
			kids = append(kids, pid)
		}
	}
	return kids
}
