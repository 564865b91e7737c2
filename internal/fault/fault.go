// Package fault is the deterministic fault-injection registry the
// chaos-differential suite drives the runtime with. The paper's parallel
// algorithms ran on a 20-node EC2 cluster where worker loss and stragglers
// are the steady state; this package lets the in-process runtime rehearse
// exactly those failures — a worker panicking mid-unit, a unit stalling
// past its deadline, a crash inside match enumeration, literal evaluation,
// or a simulated shipment — without build tags, sleeps-and-prayers, or
// nondeterministic monkey processes.
//
// # Plans and injectors
//
// A Plan is an immutable, declarative fault specification:
//
//	plan := fault.NewPlan(42).
//	        KillWorker(1, 0).                       // worker 1 dies starting its 1st unit
//	        DelayUnit(7, 5*time.Millisecond).       // unit 7's first attempt stalls
//	        PanicAt(fault.Match, 100)               // 100th match crossing panics
//
// Arming a plan (Plan.Arm) produces an Injector holding the run-local
// crossing counters; the runtime threads the injector through its
// goroutine fan-outs and calls Injector.Cross at each instrumented site.
// A nil injector makes every crossing a nil-check no-op — production runs
// arm nothing and pay nothing (every benchmark/ workload runs unarmed,
// so BENCHMARK.json's bounds pin this).
//
// # Deterministic replay
//
// Replay is a property of the armed run, not of wall clock or scheduler
// luck: every rule fires on a counted crossing (the k-th unit a worker
// starts, the first attempt of unit u, the N-th crossing of a site), each
// rule fires exactly once per armed injector, and panics carry a typed
// Injected value naming the rule that fired. Re-arming the same plan over
// the same workload re-injects the same faults; a randomized plan is fully
// determined by its seed (FromSeed), so a failing chaos case is reproduced
// by logging one int64 and re-running. Counted crossings make the single
// concession to concurrency explicit: which worker observes the N-th
// global crossing of a shared site may vary between schedules, but the
// fault still fires exactly once, and the recovery machinery must converge
// to the same violation set regardless — which is precisely the invariant
// the differential suite checks.
package fault

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Site names one instrumented crossing in the runtime.
type Site uint8

const (
	// UnitStart is crossed by a worker about to execute a work unit
	// (validation engines), after the unit's attempt is charged.
	UnitStart Site = iota
	// Match is crossed once per pattern match delivered by the enumerator.
	Match
	// Literal is crossed once per dependency (literal-program) evaluation.
	Literal
	// Ship is crossed once per simulated data shipment (cluster.Ship).
	Ship
	// FreezeShard is crossed once per parallel-freeze shard task.
	FreezeShard
	// ProcUnit is crossed by a worker *process* starting an assigned unit
	// (internal/dist). Unlike UnitStart it never panics: the query API
	// (Injector.ProcKill) reports whether the process should exit, so the
	// child controls its own exit status.
	ProcUnit
	// PipeFrame is crossed once per outbound wire frame a worker process
	// writes (internal/dist). Queried via Injector.CrossPipe for stall and
	// truncation faults.
	PipeFrame

	numSites
)

// String names the site.
func (s Site) String() string {
	switch s {
	case UnitStart:
		return "unit-start"
	case Match:
		return "match"
	case Literal:
		return "literal"
	case Ship:
		return "ship"
	case FreezeShard:
		return "freeze-shard"
	case ProcUnit:
		return "proc-unit"
	case PipeFrame:
		return "pipe-frame"
	}
	return "unknown"
}

// Injected is the panic value an armed injector raises. The recovery
// machinery treats it like any other panic (a fault is a fault); tests use
// it to assert that a recovered failure was the injected one and not a
// genuine bug.
type Injected struct {
	Site   Site
	Worker int // worker observing the crossing; -1 when siteless
	Unit   int // unit being executed; -1 when not unit-scoped
}

// Error makes an Injected usable as an error value after recovery.
func (i Injected) Error() string {
	return fmt.Sprintf("fault: injected %s panic (worker %d, unit %d)", i.Site, i.Worker, i.Unit)
}

type action uint8

const (
	actKill action = iota
	actDelay
	actPanic
	actKillProc // process exits at the k-th unit it starts
	actStall    // frame write stalls (holding the writer) before the k-th frame
	actTruncate // the k-th frame is written truncated and the process exits
)

// rule is one declarative fault of a plan.
type rule struct {
	act    action
	site   Site
	worker int           // actKill: the worker to kill
	nth    int64         // actKill: per-worker unit ordinal (1-based); actPanic: site crossing ordinal (1-based)
	unit   int           // actDelay: unit index
	delay  time.Duration // actDelay
}

// Plan is an immutable fault specification. The zero value and nil inject
// nothing; build one with NewPlan (or FromSeed) and the chainable rule
// methods, then hand it to Options.Inject (validation engines) or arm it
// directly for other subsystems.
type Plan struct {
	seed  int64
	rules []rule
}

// NewPlan returns an empty plan tagged with a seed (recorded for replay
// logging; FromSeed derives the rules from it too).
func NewPlan(seed int64) *Plan { return &Plan{seed: seed} }

// Seed returns the plan's seed tag.
func (p *Plan) Seed() int64 {
	if p == nil {
		return 0
	}
	return p.seed
}

// KillWorker makes worker w panic when it starts its k-th unit (0-based:
// k = 0 kills it on its very first unit). The panic fires once per armed
// injector; the ordinal counts UnitStart crossings by that worker.
func (p *Plan) KillWorker(w, k int) *Plan {
	p.rules = append(p.rules, rule{act: actKill, site: UnitStart, worker: w, nth: int64(k) + 1})
	return p
}

// DelayUnit stalls the first attempt of unit index u by d — the straggler
// fault. Combined with Options.UnitDeadline < d, the first attempt times
// out and the retry (which is not delayed — the rule fires once) succeeds.
func (p *Plan) DelayUnit(u int, d time.Duration) *Plan {
	p.rules = append(p.rules, rule{act: actDelay, site: UnitStart, unit: u, delay: d})
	return p
}

// PanicAt panics at the n-th crossing (1-based) of site, firing once per
// armed injector.
func (p *Plan) PanicAt(site Site, n int) *Plan {
	p.rules = append(p.rules, rule{act: actPanic, site: site, nth: int64(n)})
	return p
}

// KillProcess makes worker *process* w exit when it starts its k-th
// assigned unit (0-based). Unlike KillWorker it does not panic: the worker
// queries Injector.ProcKill at unit start and exits with a distinct status,
// which is what a SIGKILLed or crashed child looks like to the coordinator.
func (p *Plan) KillProcess(w, k int) *Plan {
	p.rules = append(p.rules, rule{act: actKillProc, site: ProcUnit, worker: w, nth: int64(k) + 1})
	return p
}

// StallPipe makes worker process w sleep d before writing its k-th
// outbound wire frame (0-based), while holding the frame writer — so
// heartbeats starve too and the coordinator's liveness monitor must kill
// the process. The sleep fires once per armed injector.
func (p *Plan) StallPipe(w, k int, d time.Duration) *Plan {
	p.rules = append(p.rules, rule{act: actStall, site: PipeFrame, worker: w, nth: int64(k) + 1, delay: d})
	return p
}

// TruncateMessage makes worker process w write only a prefix of its k-th
// outbound frame (0-based) and then exit: a torn frame is what death
// mid-write looks like, and the coordinator must drop the partial frame
// rather than decode garbage.
func (p *Plan) TruncateMessage(w, k int) *Plan {
	p.rules = append(p.rules, rule{act: actTruncate, site: PipeFrame, worker: w, nth: int64(k) + 1})
	return p
}

// Len returns the number of faults in the plan.
func (p *Plan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.rules)
}

// String summarizes the plan for logs and failing-test output.
func (p *Plan) String() string {
	if p == nil || len(p.rules) == 0 {
		return "fault.Plan{}"
	}
	s := fmt.Sprintf("fault.Plan{seed=%d", p.seed)
	for _, r := range p.rules {
		switch r.act {
		case actKill:
			s += fmt.Sprintf(", kill(w%d@unit#%d)", r.worker, r.nth-1)
		case actDelay:
			s += fmt.Sprintf(", delay(u%d,%v)", r.unit, r.delay)
		case actPanic:
			s += fmt.Sprintf(", panic(%s#%d)", r.site, r.nth)
		case actKillProc:
			s += fmt.Sprintf(", killproc(w%d@unit#%d)", r.worker, r.nth-1)
		case actStall:
			s += fmt.Sprintf(", stall(w%d@frame#%d,%v)", r.worker, r.nth-1, r.delay)
		case actTruncate:
			s += fmt.Sprintf(", trunc(w%d@frame#%d)", r.worker, r.nth-1)
		}
	}
	return s + "}"
}

// Encode serializes the plan into a compact single-line form suitable for
// an environment variable — how the coordinator arms a seeded plan inside a
// worker child so process faults replay deterministically. DecodePlan is
// the inverse. A nil or empty plan encodes to "".
func (p *Plan) Encode() string {
	if p == nil || len(p.rules) == 0 {
		return ""
	}
	s := fmt.Sprintf("v1;seed=%d", p.seed)
	for _, r := range p.rules {
		switch r.act {
		case actKill:
			s += fmt.Sprintf(";kill,%d,%d", r.worker, r.nth)
		case actDelay:
			s += fmt.Sprintf(";delay,%d,%d", r.unit, int64(r.delay))
		case actPanic:
			s += fmt.Sprintf(";panic,%d,%d", uint8(r.site), r.nth)
		case actKillProc:
			s += fmt.Sprintf(";killproc,%d,%d", r.worker, r.nth)
		case actStall:
			s += fmt.Sprintf(";stall,%d,%d,%d", r.worker, r.nth, int64(r.delay))
		case actTruncate:
			s += fmt.Sprintf(";trunc,%d,%d", r.worker, r.nth)
		}
	}
	return s
}

// DecodePlan parses a Plan.Encode string. "" decodes to nil (no plan).
func DecodePlan(s string) (*Plan, error) {
	if s == "" {
		return nil, nil
	}
	fields := strings.Split(s, ";")
	if fields[0] != "v1" {
		return nil, fmt.Errorf("fault: unknown plan encoding %q", fields[0])
	}
	p := &Plan{}
	for _, f := range fields[1:] {
		if seed, ok := strings.CutPrefix(f, "seed="); ok {
			v, err := strconv.ParseInt(seed, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad plan seed %q", seed)
			}
			p.seed = v
			continue
		}
		parts := strings.Split(f, ",")
		args := make([]int64, 0, 3)
		for _, a := range parts[1:] {
			v, err := strconv.ParseInt(a, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad plan field %q", f)
			}
			args = append(args, v)
		}
		bad := func() (*Plan, error) { return nil, fmt.Errorf("fault: bad plan field %q", f) }
		switch parts[0] {
		case "kill":
			if len(args) != 2 {
				return bad()
			}
			p.rules = append(p.rules, rule{act: actKill, site: UnitStart, worker: int(args[0]), nth: args[1]})
		case "delay":
			if len(args) != 2 {
				return bad()
			}
			p.rules = append(p.rules, rule{act: actDelay, site: UnitStart, unit: int(args[0]), delay: time.Duration(args[1])})
		case "panic":
			if len(args) != 2 || args[0] < 0 || args[0] >= int64(numSites) {
				return bad()
			}
			p.rules = append(p.rules, rule{act: actPanic, site: Site(args[0]), nth: args[1]})
		case "killproc":
			if len(args) != 2 {
				return bad()
			}
			p.rules = append(p.rules, rule{act: actKillProc, site: ProcUnit, worker: int(args[0]), nth: args[1]})
		case "stall":
			if len(args) != 3 {
				return bad()
			}
			p.rules = append(p.rules, rule{act: actStall, site: PipeFrame, worker: int(args[0]), nth: args[1], delay: time.Duration(args[2])})
		case "trunc":
			if len(args) != 2 {
				return bad()
			}
			p.rules = append(p.rules, rule{act: actTruncate, site: PipeFrame, worker: int(args[0]), nth: args[1]})
		default:
			return bad()
		}
	}
	return p, nil
}

// FromSeed derives a pseudo-random recoverable plan for a run with the
// given worker and unit counts: one or two faults drawn from worker kills,
// unit delays, and match/literal-crossing panics. The same seed always
// yields the same plan — the chaos suite sweeps seeds and logs only the
// seed on failure.
func FromSeed(seed int64, workers, units int) *Plan {
	if workers < 1 {
		workers = 1
	}
	if units < 1 {
		units = 1
	}
	rng := rand.New(rand.NewSource(seed))
	p := NewPlan(seed)
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			p.KillWorker(rng.Intn(workers), rng.Intn(3))
		case 1:
			p.DelayUnit(rng.Intn(units), time.Duration(1+rng.Intn(4))*time.Millisecond)
		case 2:
			p.PanicAt(Match, 1+rng.Intn(64))
		case 3:
			p.PanicAt(Literal, 1+rng.Intn(32))
		}
	}
	return p
}

// FromSeedProc derives a pseudo-random *recoverable* process-fault plan
// for a distributed run: one or two faults drawn from process kills, pipe
// stalls, truncated frames, and unit delays. Stall durations are far above
// any sane heartbeat interval, so the coordinator's liveness monitor —
// not the sleep expiring — is what ends the stalled process. Like
// FromSeed, the same seed always yields the same plan.
func FromSeedProc(seed int64, workers, units int) *Plan {
	if workers < 1 {
		workers = 1
	}
	if units < 1 {
		units = 1
	}
	rng := rand.New(rand.NewSource(seed))
	p := NewPlan(seed)
	n := 1 + rng.Intn(2)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			p.KillProcess(rng.Intn(workers), rng.Intn(3))
		case 1:
			p.StallPipe(rng.Intn(workers), rng.Intn(6), 30*time.Second)
		case 2:
			p.TruncateMessage(rng.Intn(workers), rng.Intn(6))
		case 3:
			p.DelayUnit(rng.Intn(units), time.Duration(1+rng.Intn(4))*time.Millisecond)
		}
	}
	return p
}

// armedRule is one rule plus its fired latch.
type armedRule struct {
	rule
	fired atomic.Bool
}

// Injector is a plan armed for one run: the rules plus run-local crossing
// counters. It is safe for concurrent use by every worker of the run; a
// nil *Injector is a valid no-op (Cross nil-checks), which is what an
// unarmed production run carries.
type Injector struct {
	plan       *Plan
	rules      []*armedRule
	siteCounts [numSites]atomic.Int64
	workerUnit []atomic.Int64 // UnitStart crossings per worker
	procUnit   []atomic.Int64 // ProcUnit crossings per worker process
	pipeFrames []atomic.Int64 // PipeFrame crossings per worker process
}

// Arm binds the plan to a run with the given worker count, resetting every
// crossing counter. A nil plan (or one with no rules) arms to nil, so the
// injection points compile down to a nil check.
func (p *Plan) Arm(workers int) *Injector {
	if p == nil || len(p.rules) == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	in := &Injector{
		plan:       p,
		workerUnit: make([]atomic.Int64, workers),
		procUnit:   make([]atomic.Int64, workers),
		pipeFrames: make([]atomic.Int64, workers),
	}
	in.rules = make([]*armedRule, len(p.rules))
	for i := range p.rules {
		in.rules[i] = &armedRule{rule: p.rules[i]}
	}
	return in
}

// Plan returns the armed plan.
func (in *Injector) Plan() *Plan {
	if in == nil {
		return nil
	}
	return in.plan
}

// Cross is the injection point: the runtime calls it with the site being
// crossed, the observing worker (or -1), and the unit being executed (or
// -1). It returns immediately on a nil receiver; otherwise it advances the
// crossing counters and fires any matching un-fired rule — a panic
// (Injected value) for kills and site panics, a sleep for delays. Each
// rule fires at most once per armed injector.
func (in *Injector) Cross(site Site, worker, unit int) {
	if in == nil {
		return
	}
	n := in.siteCounts[site].Add(1)
	var wn int64
	if site == UnitStart && worker >= 0 && worker < len(in.workerUnit) {
		wn = in.workerUnit[worker].Add(1)
	}
	for _, r := range in.rules {
		if r.site != site || r.fired.Load() {
			continue
		}
		switch r.act {
		case actKill:
			if worker == r.worker && wn == r.nth && r.fired.CompareAndSwap(false, true) {
				panic(Injected{Site: site, Worker: worker, Unit: unit})
			}
		case actDelay:
			if unit == r.unit && r.fired.CompareAndSwap(false, true) {
				time.Sleep(r.delay)
			}
		case actPanic:
			if n == r.nth && r.fired.CompareAndSwap(false, true) {
				panic(Injected{Site: site, Worker: worker, Unit: unit})
			}
		}
	}
}

// ProcKill is the worker-process injection point for KillProcess rules:
// the child calls it when starting an assigned unit and exits (with a
// distinct status) when it returns true. It never panics — the caller owns
// the exit — and a nil receiver reports false. The delay rules of the plan
// (DelayUnit) still fire through Cross(UnitStart, ...); ProcKill counts a
// separate per-process ordinal so an in-process KillWorker plan and a
// process-kill plan don't alias.
func (in *Injector) ProcKill(worker, unit int) bool {
	if in == nil {
		return false
	}
	in.siteCounts[ProcUnit].Add(1)
	var wn int64
	if worker >= 0 && worker < len(in.procUnit) {
		wn = in.procUnit[worker].Add(1)
	}
	for _, r := range in.rules {
		if r.act != actKillProc || r.fired.Load() {
			continue
		}
		if worker == r.worker && wn == r.nth && r.fired.CompareAndSwap(false, true) {
			return true
		}
	}
	return false
}

// CrossPipe is the worker-process injection point for outbound wire
// frames: the frame writer calls it before writing each frame. It returns
// the stall to sleep (while holding the writer, so heartbeats starve) and
// whether the frame must be written truncated followed by process exit.
// A nil receiver reports no faults.
func (in *Injector) CrossPipe(worker int) (stall time.Duration, truncate bool) {
	if in == nil {
		return 0, false
	}
	in.siteCounts[PipeFrame].Add(1)
	var wn int64
	if worker >= 0 && worker < len(in.pipeFrames) {
		wn = in.pipeFrames[worker].Add(1)
	}
	for _, r := range in.rules {
		if r.fired.Load() || r.worker != worker || r.nth != wn {
			continue
		}
		switch r.act {
		case actStall:
			if r.fired.CompareAndSwap(false, true) {
				stall = r.delay
			}
		case actTruncate:
			if r.fired.CompareAndSwap(false, true) {
				truncate = true
			}
		}
	}
	return stall, truncate
}

// Fired reports how many of the plan's rules have fired so far — tests
// assert the fault actually happened (a plan that never fires makes a
// recovery test vacuous).
func (in *Injector) Fired() int {
	if in == nil {
		return 0
	}
	fired := 0
	for _, r := range in.rules {
		if r.fired.Load() {
			fired++
		}
	}
	return fired
}
