package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gfd"
)

// loopDeadline bounds one workload's loop; ops not finished by then count
// as failed. It leaves room for setup and build inside the driver's
// per-run limit.
const loopDeadline = 100 * time.Second

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// sample is one successful op.
type sample struct {
	wall, first time.Duration
	factor      float64 // host speed around the op (hostFactor): 1 = nominal
	alloc       uint64  // bytes allocated between the op's first call and its last violation
	traced      bool
	res         gfd.Result
}

// loopStats is everything one closed loop produced.
type loopStats struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	builds    int           // snapshot builds the measured ops caused
	liveHeap  uint64        // HeapAlloc after GC with the workload's session still open, plus its snapshot mapping
	wall      time.Duration // whole measured loop, harness checks included
	selfCPU   time.Duration // this process, over the loop
	childCPU  time.Duration // waited-for children (dist workers), over the loop
	childRSS  int64         // peak RSS among children, KB
	gcPause   time.Duration
}

func rusage(who int) (cpu time.Duration, maxRSSKB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), ru.Maxrss
}

// runLoop is the closed loop with one client: warmupOps discarded ops, then
// ops measured ones, each started only after the previous one was verified.
// With a tracer, every second measured op runs traced, so the traced and
// untraced medians come from interleaved ops of one process.
func runLoop(w *workload, a *artifacts, ops int, tr *tracer) (*loopStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), loopDeadline)
	defer cancel()
	o, err := w.newOp(a, tr)
	if err != nil {
		return nil, fmt.Errorf("open workload: %w", err)
	}
	st := &loopStats{attempted: ops}
	fail := func(err error) {
		st.failed++
		if st.firstErr == nil {
			st.firstErr = err
		}
	}
	for i := 0; i < warmupOps; i++ {
		if r := o.run(ctx); r.err != nil {
			o.finish()
			return nil, fmt.Errorf("warm-up op: %w", r.err)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pause0 := ms.PauseTotalNs
	builds0 := o.builds()
	self0, _ := rusage(syscall.RUSAGE_SELF)
	child0, _ := rusage(syscall.RUSAGE_CHILDREN)
	st.samples = make([]sample, 0, ops)
	kernel := newRefKernel()
	loopStart := time.Now()
	before := kernel.run()
	for i := 0; i < ops; i++ {
		if ctx.Err() != nil {
			fail(errors.New("workload deadline passed"))
			continue
		}
		traced := tr != nil && i%2 == 0
		if tr != nil {
			tr.on, tr.op = traced, i
		}
		r := o.run(ctx)
		// One reference-kernel run between ops: the op's factor is the mean
		// of the run before it and the run after it.
		after := kernel.run()
		factor := hostFactor(before, after)
		before = after
		if r.err != nil {
			fail(fmt.Errorf("op %d: %w", i, r.err))
			continue
		}
		st.samples = append(st.samples, sample{r.wall, r.first, factor, r.alloc, traced, r.res})
	}
	st.wall = time.Since(loopStart)
	if tr != nil {
		tr.on = false
	}
	self1, _ := rusage(syscall.RUSAGE_SELF)
	child1, rss := rusage(syscall.RUSAGE_CHILDREN)
	st.selfCPU, st.childCPU, st.childRSS = self1-self0, child1-child0, rss
	st.builds = o.builds() - builds0
	runtime.ReadMemStats(&ms)
	st.gcPause = time.Duration(ms.PauseTotalNs - pause0)

	// Live heap: what sessions, caches and overlays retain. A cold workload
	// retains nothing past an op, so one more unclocked op is held open.
	release := func() {}
	if o.hold != nil {
		if release, err = o.hold(ctx); err != nil {
			fail(fmt.Errorf("held op: %w", err))
			release = func() {}
		}
	}
	// Twice: the first cycle empties the sync.Pools, the second frees what
	// they held.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	st.liveHeap = ms.HeapAlloc + a.mappedBytes
	release()
	if err := o.finish(); err != nil {
		fail(fmt.Errorf("end-of-loop check: %w", err))
	}
	if st.builds != 0 && !w.updates {
		fail(fmt.Errorf("%d snapshot builds in a loop that must cause none", st.builds))
	}
	return st, nil
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// values projects the samples through pick.
func values(samples []sample, pick func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = pick(s)
	}
	return out
}

// Projections: raw wall seconds, and host-normalised seconds — each op's
// seconds divided by the host factor measured around it, i.e. seconds of
// the reference host (calib.go).
func wallOf(s sample) float64      { return s.wall.Seconds() }
func firstOf(s sample) float64     { return s.first.Seconds() }
func normWallOf(s sample) float64  { return s.wall.Seconds() / s.factor }
func normFirstOf(s sample) float64 { return s.first.Seconds() / s.factor }
func factorOf(s sample) float64    { return s.factor }

// tailOf returns the highest percentile with at least ten samples beyond
// it, capped at p90 and floored at the median, and its rank in percent.
func tailOf(vs []float64) (value, pct float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	q := 0.5
	if n := len(s); n > 0 {
		q = min(0.9, max(0.5, float64(n-10)/float64(n)))
	}
	if len(s) == 0 {
		return 0, 100 * q
	}
	return s[min(len(s)-1, int(q*float64(len(s))))], 100 * q
}

const mb = 1 << 20

// endToEnd computes the end-to-end metrics of a measured loop. The three
// time metrics are host-normalised; raw holds the same medians in wall
// seconds, with the host factor, for the printed table and the result file.
func endToEnd(st *loopStats, edges int) (m metrics, raw map[string]float64) {
	m = metrics{}
	walls := values(st.samples, normWallOf)
	m.set("detect_s_p50", median(walls), "s")
	m.set("first_violation_s_p50", median(values(st.samples, normFirstOf)), "s")
	var sum float64
	var alloc uint64
	for i, s := range st.samples {
		sum += walls[i]
		alloc += s.alloc
	}
	n := float64(len(st.samples))
	if sum > 0 {
		m.set("throughput_edges_s", float64(edges)*n/sum, "edges/s")
		m.set("alloc_mb_per_op", float64(alloc)/mb/n, "MB")
	}
	m.set("live_heap_mb", float64(st.liveHeap)/mb, "MB")
	raw = map[string]float64{
		"raw_detect_s_p50":          median(values(st.samples, wallOf)),
		"raw_first_violation_s_p50": median(values(st.samples, firstOf)),
		"host_factor_p50":           median(values(st.samples, factorOf)),
	}
	return m, raw
}

// peakRSSMB reads VmHWM of this process.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
